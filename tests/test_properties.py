"""Property tests over random members of every generator family."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from diffeolab.errors import ConstructionError
from diffeolab.generators import blend, mobius, polybump, spline

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
