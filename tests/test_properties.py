"""Property tests over random members of every generator family."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from diffeolab.errors import ConstructionError
from diffeolab.generators import (INVERSE_TOL, SCALAR_INVERSE_MAX, blend, mobius, polybump,
                                  spline)
from test_generators import assert_near_mp_roots, bits, whole_spline_solve

FAMILIES = ("mobius", "polybump", "spline", "blend")

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

unit = st.floats(0.0, 1.0)


@st.composite
def generator_maps(draw, family):
    if family == "mobius":
        return mobius("m", draw(st.floats(0.2, 5.0)))
    if family == "polybump":
        return polybump("p", draw(st.floats(-4.9, 4.9)))
    k = draw(st.integers(1, 4))
    inner = st.lists(st.floats(0.02, 0.98), min_size=k, max_size=k, unique=True)
    xs, ys = sorted(draw(inner)), sorted(draw(inner))
    try:
        g = spline("s", [(0.0, 0.0), *zip(xs, ys), (1.0, 1.0)])
    except ConstructionError:
        assume(False)
    # A nearly flat segment leaves the inverse ill-conditioned in x.
    assume(g.der_inf > 1e-3)
    return g if family == "spline" else blend("b", g, draw(unit))


@pytest.mark.parametrize("family", FAMILIES)
@SETTINGS
@given(data=st.data())
def test_inverse_round_trip(family, data):
    g = data.draw(generator_maps(family))
    # Up to 40 points: splines invert short arrays point by point, longer
    # ones by blocks, and Python floats on the scalar path.
    xs = np.array(data.draw(st.lists(unit, min_size=1, max_size=40)))
    assert np.max(np.abs(g.inverse(g.value(xs)) - xs)) <= 1e-11
    assert abs(g.inverse(g.value(float(xs[0]))) - xs[0]) <= 1e-11


@pytest.mark.parametrize("family", FAMILIES)
@SETTINGS
@given(data=st.data())
def test_value_strictly_increasing(family, data):
    g = data.draw(generator_maps(family))
    # Closer points may round to the same value.
    lo = data.draw(st.floats(0.0, 1.0 - 1e-9))
    hi = data.draw(st.floats(lo + 1e-9, 1.0))
    assert g.value(lo) < g.value(hi)


@st.composite
def narrow_segment_splines(draw):
    # A segment 1e-6 to 1e-15 wide, inside or at the right end: the narrow
    # ones run out of distinct bisection midpoints, so their tree tables
    # stop short of TREE_DEPTH levels.
    h = 10.0 ** -draw(st.integers(6, 15))
    slope = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        x, y = draw(st.floats(0.1, 0.8)), draw(st.floats(0.1, 0.8))
        knots = [(0.0, 0.0), (x, y), (x + h, y + h * slope), (1.0, 1.0)]
    else:
        x = draw(st.floats(0.1, 0.8))
        knots = [(0.0, 0.0), (x, x), (1.0 - h, 1.0 - h * slope), (1.0, 1.0)]
    try:
        g = spline("n", knots)
    except ConstructionError:
        assume(False)
    assume(g.der_inf > 1e-3)
    return g


@st.composite
def small_slope_splines(draw):
    # An end slope of 1e-3 to 1e-8: near that knot Newton from the leaf's
    # midpoint may only halve its error, and the bracketed re-solve runs.
    k = draw(st.integers(1, 3))
    inner = st.lists(st.floats(0.02, 0.98), min_size=k, max_size=k, unique=True)
    xs, ys = sorted(draw(inner)), sorted(draw(inner))
    slopes = [10.0 ** -draw(st.floats(3.0, 8.0)), draw(st.floats(0.5, 2.0))]
    if draw(st.booleans()):
        slopes.reverse()
    try:
        return spline("s", [(0.0, 0.0), *zip(xs, ys), (1.0, 1.0)], end_slopes=slopes)
    except ConstructionError:
        assume(False)


SPLINE_FAMILIES = {"spline": lambda: generator_maps("spline"),
                   "blend": lambda: generator_maps("blend"),
                   "narrow": narrow_segment_splines, "small_slope": small_slope_splines}


@pytest.mark.parametrize("family", SPLINE_FAMILIES)
@SETTINGS
@given(data=st.data())
def test_spline_tree_lookup_keeps_the_inverse_bitwise(family, data):
    g = data.draw(SPLINE_FAMILIES[family]())
    d = g._spline
    _, keys, bounds = d.tree
    assert np.all(keys[1:] >= keys[:-1]) and bounds.size == keys.size + 1
    knots = np.concatenate([d.ys, np.nextafter(d.ys, 0.0), np.nextafter(d.ys, 1.0)])
    near_ends = 10.0 ** -np.array(data.draw(st.lists(st.floats(4.0, 14.0), max_size=8)))
    n = SCALAR_INVERSE_MAX
    ys = np.concatenate([knots, near_ends, 1.0 - near_ends,
                         data.draw(st.lists(unit, min_size=n, max_size=2 * n))])
    ys = np.clip(ys, 0.0, 1.0)
    # Above SCALAR_INVERSE_MAX points by blocks, up to it point by point.
    xs = g.inverse(ys)
    assert np.array_equal(bits(xs), bits(whole_spline_solve(d, ys)))
    assert np.max(np.abs(g.value(xs) - ys)) <= INVERSE_TOL
    assert_near_mp_roots(d, ys, xs)
    small = [g.inverse(ys[k:k + n]) for k in range(0, ys.size, n)]
    assert np.array_equal(bits(np.concatenate(small)), bits(xs))
    assert np.array_equal(bits([g.inverse(float(t)) for t in ys]), bits(xs))
