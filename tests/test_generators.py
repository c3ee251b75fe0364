"""Generator families: values, derivatives, inverses, certified bounds."""

import dataclasses
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import diffeolab as dl
from diffeolab.config import build_generator_set, load_config
import diffeolab.generators as generators
from diffeolab.generators import (BISECT_STEPS, INVERSE_TOL, NEWTON_STEPS,
                                  SCALAR_INVERSE_MAX, TREE_DEPTH, _invert_monotone,
                                  _segment_deriv_extrema, _spline_deriv, _spline_inverse,
                                  _spline_inverse_scalar, _spline_value, _table_leaves,
                                  build_pp, blend, letter_step,
                                  letter_value, mobius, polybump, spline)
from diffeolab.errors import ConstructionError, DomainError, NumericError
from diffeolab.zassenhaus import build_wreath_pair

RNG = np.random.default_rng(20240811)


def all_test_maps():
    S = build_pp()
    f, g = S.generators
    return [
        mobius("m2", 2.0),
        mobius("mh", 0.5),
        mobius("m105", 1.05),
        polybump("p1", 1.0),
        polybump("pm", -2.5),
        f, g,
        blend("b", f, 0.05),
    ]


def test_mobius_values():
    f = mobius("f", 2.0)
    assert f.value(0.0) == 0.0
    assert f.value(1.0) == 1.0
    assert f.value(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_polybump_value():
    p = polybump("p", 1.0)
    assert p.value(0.5) == pytest.approx(0.5625, abs=1e-15)
    assert p.value(0.0) == 0.0 and p.value(1.0) == 1.0


def test_mobius_derivative_endpoints():
    for lam in (2.0, 0.5, 1.3):
        f = mobius("f", lam)
        assert f.deriv(0.0) == pytest.approx(lam, rel=1e-15)
        assert f.deriv(1.0) == pytest.approx(1.0 / lam, rel=1e-15)


def test_polybump_midpoint_derivative():
    # the cubic factor (1 - 2x) vanishes at 1/2
    assert polybump("p", 3.0).deriv(0.5) == 1.0


def test_mobius_inverse_closed_form():
    f = mobius("f", 2.0)
    assert f.inverse(2.0 / 3.0) == pytest.approx(0.5, abs=1e-15)
    assert f.inverse(0.0) == 0.0


def test_spline_pinned_knot_inverse_exact():
    f = build_pp()["f"]
    assert f.value(0.1) == 0.251
    assert f.inverse(0.251) == 0.1
    assert f.inverse(0.0) == 0.0 and f.inverse(1.0) == 1.0


def test_endpoints_fixed_exactly():
    for g in all_test_maps():
        assert g.value(0.0) == 0.0
        assert g.value(1.0) == 1.0


@pytest.mark.parametrize("gmap", all_test_maps(), ids=lambda g: g.id)
def test_monotone(gmap):
    xs = RNG.uniform(0.0, 1.0, size=(10_000, 2))
    lo, hi = xs.min(axis=1), xs.max(axis=1)
    keep = lo < hi
    assert np.all(gmap.value(hi[keep]) > gmap.value(lo[keep]))


@pytest.mark.parametrize("gmap", all_test_maps(), ids=lambda g: g.id)
def test_inverse_round_trip(gmap):
    xs = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(gmap.inverse(gmap.value(xs)) - xs)) <= 1e-11


@pytest.mark.parametrize("gmap", all_test_maps(), ids=lambda g: g.id)
def test_derivative_matches_finite_difference(gmap):
    xs = np.linspace(0.01, 0.99, 211)
    h = 1e-6
    fd = (gmap.value(xs + h) - gmap.value(xs - h)) / (2 * h)
    assert np.max(np.abs(gmap.deriv(xs) - fd) / np.abs(fd)) <= 1e-6


@pytest.mark.parametrize("gmap", all_test_maps(), ids=lambda g: g.id)
def test_global_bounds_sound(gmap):
    inf, sup, lip = gmap.der_inf, gmap.der_sup, gmap.der_lip
    xs = np.linspace(0.0, 1.0, 20_001)
    ds = gmap.deriv(xs)
    assert np.min(ds) >= inf - 1e-12
    assert np.max(ds) <= sup + 1e-12
    quot = np.abs(np.diff(ds)) / np.diff(xs)
    assert np.max(quot) <= lip + 1e-9


def test_polybump_der_sup_oracle():
    # dense-scan oracle for the derivative maximum of x + x^2(1-x)^2
    p = polybump("p", 1.0)
    xs = np.linspace(0.0, 1.0, 10**6 + 1)
    scan = float(np.max(p.deriv(xs)))
    assert p.der_sup == pytest.approx(1.1924500897298753, abs=1e-12)
    assert scan <= p.der_sup and p.der_sup - scan < 1e-10


def test_mobius_bounds_exact():
    f = mobius("f", 2.0)
    assert (f.der_inf, f.der_sup) == (0.5, 2.0)


def test_blend_zero_is_identity():
    f = build_pp()["f"]
    ident = blend("id", f, 0.0)
    assert (ident.der_inf, ident.der_sup, ident.der_lip) == (1.0, 1.0, 0.0)
    xs = np.linspace(0.0, 1.0, 997)
    # identity segments evaluate as y_i + (x - x_i): exact up to one rounding
    assert np.max(np.abs(ident.value(xs) - xs)) <= 2e-16


def test_deriv_range_on_local():
    f = build_pp()["f"]
    lo, hi = f.deriv_range_on(0.999, 1.0)
    xs = np.linspace(0.999, 1.0, 5001)
    ds = f.deriv(xs)
    assert lo - 1e-12 <= np.min(ds) and np.max(ds) <= hi + 1e-12
    assert hi < f.der_sup  # genuinely local near the flat endpoint


def test_value_bracket_covers_image():
    for gmap in all_test_maps():
        b_lo, b_hi = gmap.value_bracket(0.3, 0.6)
        xs = np.linspace(0.3, 0.6, 501)
        vals = gmap.value(xs)
        assert b_lo - 1e-14 <= np.min(vals) and np.max(vals) <= b_hi + 1e-14


def test_non_monotone_spline_rejected():
    with pytest.raises(ConstructionError):
        spline("bad", [(0.0, 0.0), (0.4, 0.7), (0.6, 0.3), (1.0, 1.0)])


def test_bad_knot_range_rejected():
    with pytest.raises(ConstructionError):
        spline("bad", [(0.0, 0.1), (1.0, 1.0)])


def test_domain_errors():
    f = mobius("f", 2.0)
    with pytest.raises(DomainError):
        f.value(1.5)
    with pytest.raises(DomainError):
        f.deriv(-0.1)
    with pytest.raises(DomainError):
        mobius("g", -1.0)
    with pytest.raises(DomainError):
        polybump("g", 5.0)


def test_generator_set_constants():
    S = build_pp()
    sups = sorted((g.der_sup for g in S.generators), reverse=True)
    assert S.m_double == pytest.approx(2.0 * (sups[0] + sups[1]), rel=1e-15)
    assert S.m_double >= 2.0
    assert len(S.alphabet) == 4
    assert [l.text for l in S.alphabet] == ["f", "f^-1", "g", "g^-1"]
    with pytest.raises(DomainError):
        S["nope"]


def test_spline_inverse_convergence_reported():
    # the guarded inverse either converges or raises, never silently drifts
    f = build_pp()["f"]
    ys = RNG.uniform(0.0, 1.0, 4096)
    try:
        xs = f.inverse(ys)
    except NumericError:
        pytest.fail("inverse failed on plain monotone data")
    assert np.max(np.abs(f.value(xs) - ys)) <= 1e-12


# -- the spline inverse: Newton from the table leaf, and the scalar path -------

def spline_maps():
    f, g = build_pp().generators
    pair = build_wreath_pair(0.1, (0.40, 0.42), 3)
    # The non-vacuous wreath pair that perfbench's wreath_search also runs.
    fine = build_wreath_pair(0.05, (0.40, 0.41), 3)
    return [f, g, blend("b", f, 0.5), pair.u, pair.v,
            dataclasses.replace(fine.u, id="u05"), dataclasses.replace(fine.v, id="v05")]


def whole_spline_inverse(d, y):
    """Reference: 22 bisection and 4 Newton steps on the whole spline, one
    segment as bracket."""
    i = np.clip(np.searchsorted(d.ys, y, side="right") - 1, 0, len(d.ys) - 2)
    x = _invert_monotone(lambda t: _spline_value(d, t),
                         lambda t: _spline_deriv(d, t), y, d.xs[i], d.xs[i + 1])
    x = np.where(y == d.ys[i], d.xs[i], x)
    return np.where(y == d.ys[-1], d.xs[-1], x)


def horner_deriv(d, a):
    """The spline's slope, with the inverse's Horner pass: the cubic's
    coefficient ``s*c3 + c2`` is shared between value and slope."""
    i = np.clip(np.searchsorted(d.xs, a, side="right") - 1, 0, len(d.xs) - 2)
    s = a - d.xs[i]
    v = s * d.c3[i] + d.c2[i]
    dv = (s * d.c3[i] + v) * s + (v * s + d.ms[i])
    return np.where(a == d.xs[-1], d.ms[-1], dv)


def whole_spline_solve(d, y, resolve_all=False):
    """Reference for the table: the inverse's own solve, read on the whole spline.

    The segment search and ``d.tree[0]`` live bisection steps on the whole
    spline, one segment as bracket, then ``NEWTON_STEPS`` clipped Newton
    steps from the bracket's midpoint.  Points whose last Newton step
    started or ended above ``INVERSE_TOL`` (every point, with
    ``resolve_all``) are solved again with ``BISECT_STEPS`` bisection and
    ``NEWTON_STEPS`` Newton steps.  Value and slope come from the whole
    spline, so at a right knot they are the next segment's.
    """
    i = np.clip(np.searchsorted(d.ys, y, side="right") - 1, 0, len(d.ys) - 2)
    x, far = bisect_then_newton(d, y, i, d.tree[0], generators.NEWTON_STEPS)
    far |= resolve_all
    x[far] = bisect_then_newton(d, y[far], i[far], BISECT_STEPS, generators.NEWTON_STEPS)[0]
    assert np.all(residual(d, y, x) <= INVERSE_TOL)
    x = np.where(y == d.ys[i], d.xs[i], x)
    return np.where(y == d.ys[-1], d.xs[-1], x)


def bisect_then_newton(d, y, i, bisect, steps):
    """x, and where the last Newton step started or ended above INVERSE_TOL."""
    lo, hi = d.xs[i], d.xs[i + 1]
    for _ in range(bisect):
        mid = 0.5 * (lo + hi)
        below = _spline_value(d, mid) < y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    x, far = 0.5 * (lo + hi), np.zeros(y.shape, bool)
    for _ in range(steps):
        r = _spline_value(d, x) - y
        far = np.abs(r) > INVERSE_TOL
        x = np.clip(x - r / horner_deriv(d, x), lo, hi)
    return x, far | (residual(d, y, x) > INVERSE_TOL)


def probe_points(d):
    """10^5 random points, every knot value and the values 1 ulp either side."""
    knots = np.concatenate([d.ys, np.nextafter(d.ys, 0.0), np.nextafter(d.ys, 1.0)])
    return np.concatenate([np.random.default_rng(7).random(100_000), knots])


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def residual(d, y, x):
    return np.abs(_spline_value(d, x) - y)


def scalar_inverse(d, y):
    return np.array([_spline_inverse_scalar(d, t) for t in y.tolist()])


def assert_near_mp_roots(d, y, x):
    """Each x lies within |p(x) - y| / der_inf + 1 ulp of a 50-digit root of p.

    p is the cubic of the segment whose value range holds y, its float
    coefficients taken as exact, and der_inf its least slope on the segment.
    The root is clipped to the segment: where the cubic ends below the right
    knot's value, the inverse of the y in between is that knot.  Returns the
    largest distance in ulps of x.
    """
    i = np.clip(np.searchsorted(d.ys, y, side="right") - 1, 0, len(d.ys) - 2)
    worst = 0.0
    with mpmath.workdps(50):
        for t, xt, k in zip(y.tolist(), x.tolist(), i.tolist()):
            x0, x1 = d.xs[k], d.xs[k + 1]
            y0, m0, c2, c3 = (mpmath.mpf(float(a[k])) for a in (d.ys, d.ms, d.c2, d.c3))

            def p(s):
                return y0 + s * (m0 + s * (c2 + s * c3)) - t

            s = mpmath.mpf(xt) - mpmath.mpf(float(x0))
            try:
                root = mpmath.findroot(p, s)
            except ValueError:  # a near-double root: bracket it instead
                h = mpmath.mpf(float(x1)) - mpmath.mpf(float(x0))
                root = h if p(h) <= 0 else mpmath.findroot(p, (0, h), solver="anderson")
            root = min(max(root + float(x0), mpmath.mpf(float(x0))), mpmath.mpf(float(x1)))
            der_inf = _segment_deriv_extrema(d, k, 0.0, float(x1 - x0))[0]
            dist = abs(mpmath.mpf(xt) - root)
            assert dist <= abs(p(s)) / der_inf + math.ulp(xt), (t, xt)
            worst = max(worst, float(dist) / math.ulp(max(xt, 2.0 ** -1022)))
    return worst


def right_knot_spline():
    """A 1e-12-wide segment whose cubic ends 5e-13 below its right knot's value."""
    x1 = float.fromhex("0x1.0000000002330p-1")
    g = spline("t", [(0.0, 0.0), (0.45, 0.2), (0.5, 0.5), (x1, 0.5 + 1e-11),
                     (0.55, 0.8), (1.0, 1.0)], end_slopes=(0.44, 0.44),
               slope_pins={1: 0.5, 2: 10.0, 3: 10.0, 4: 0.5})
    d = g._spline
    c3 = d.c3.copy()
    c3[2] -= 5e-13 / (x1 - 0.5) ** 3
    return dataclasses.replace(d, c3=c3)


def route_splines():
    narrow = spline("t", [(0.0, 0.0), (0.5, 0.5), (0.5 + 1e-14, 0.5 + 1e-14), (1.0, 1.0)])
    return ([(g.id, g._spline) for g in spline_maps()]
            + [("narrow", narrow._spline), ("right_knot", right_knot_spline())])


ROUTE_IDS = dict(ids=lambda v: v if isinstance(v, str) else "")


@pytest.mark.parametrize("name, d", route_splines(), **ROUTE_IDS)
def test_spline_inverse_residual_no_worse_than_whole_spline_solve(name, d):
    # The reference is the 22-bisection, 4-Newton solve on the whole spline.
    ys = probe_points(d)
    assert np.max(residual(d, ys, _spline_inverse(d, ys))) <= \
        np.max(residual(d, ys, whole_spline_inverse(d, ys)))


@pytest.mark.parametrize("name, d", route_splines(), **ROUTE_IDS)
def test_spline_inverse_lies_near_an_mpmath_root(name, d):
    knots = np.concatenate([d.ys, np.nextafter(d.ys, 0.0), np.nextafter(d.ys, 1.0)])
    ys = np.clip(np.concatenate([np.random.default_rng(23).random(150), knots]), 0.0, 1.0)
    # At most 12 ulps, in the flat middle (slope 0.12) of pp's f.
    assert assert_near_mp_roots(d, ys, _spline_inverse(d, ys)) <= 16


@pytest.mark.parametrize("gmap", spline_maps(), ids=lambda g: g.id)
def test_spline_inverse_bitwise_equals_whole_spline_solve(gmap):
    # The table lookup gives the brackets of the live bisection.
    ys = probe_points(gmap._spline)
    assert np.array_equal(bits(gmap.inverse(ys)),
                          bits(whole_spline_solve(gmap._spline, ys)))


@pytest.mark.parametrize("gmap", spline_maps(), ids=lambda g: g.id)
def test_spline_scalar_path_bitwise_equals_array_path(gmap):
    pts = probe_points(gmap._spline)
    for op in (gmap.value, gmap.deriv, gmap.inverse):
        scalar = [op(float(p)) for p in pts]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(bits(scalar), bits(op(pts)))
        # numpy scalars, 0-d arrays and ints give the same floats
        assert op(np.float64(pts[0])) == op(np.array(pts[0])) == scalar[0]
        assert type(op(np.array(pts[0]))) is float and op(1) == op(1.0)


def plain_spline_value(d, a):
    i = np.clip(np.searchsorted(d.xs, a, side="right") - 1, 0, len(d.xs) - 2)
    s = a - d.xs[i]
    v = d.ys[i] + s * (d.ms[i] + s * (d.c2[i] + s * d.c3[i]))
    return np.where(a == d.xs[-1], d.ys[-1], v)


def plain_spline_deriv(d, a):
    i = np.clip(np.searchsorted(d.xs, a, side="right") - 1, 0, len(d.xs) - 2)
    s = a - d.xs[i]
    v = d.ms[i] + s * (2 * d.c2[i] + 3 * d.c3[i] * s)
    return np.where(a == d.xs[-1], d.ms[-1], v)


@pytest.mark.parametrize("gmap", spline_maps(), ids=lambda g: g.id)
def test_spline_value_and_deriv_bitwise_equal_plain_expressions(gmap):
    d = gmap._spline
    # Random points, every knot and the points 1 ulp either side.
    pts = np.concatenate([np.random.default_rng(11).random(100_000), d.xs,
                          np.nextafter(d.xs, 0.0), np.nextafter(d.xs, 1.0)])
    for fn, plain in ((_spline_value, plain_spline_value),
                      (_spline_deriv, plain_spline_deriv)):
        assert np.array_equal(bits(fn(d, pts)), bits(plain(d, pts)))
        grid = pts[:99_990].reshape(-1, 10).T  # not contiguous
        assert np.array_equal(bits(fn(d, grid)), bits(plain(d, grid)))
        assert fn(d, np.array(pts[0])).shape == ()


@pytest.mark.parametrize("gmap", all_test_maps(), ids=lambda g: g.id)
def test_float_path_bitwise_equals_array_path_every_family(gmap):
    pts = np.concatenate([[0.0, 1.0], RNG.random(2000)])
    for op in (gmap.value, gmap.deriv, gmap.inverse):
        scalar = [op(p) for p in pts.tolist()]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(bits(scalar), bits(op(pts)))
        assert np.array_equal(bits(scalar[:40]), bits([op(np.array(p)) for p in pts[:40]]))
        assert op(0) == op(0.0) and op(1) == op(1.0)
        with pytest.raises(DomainError):
            op(math.nan)


@pytest.mark.parametrize("n", [SCALAR_INVERSE_MAX, 2 * SCALAR_INVERSE_MAX, 8193])
def test_spline_inverse_keeps_shape_and_values(n):
    # Point by point, one small block, and one large block.
    f = build_pp()["f"]
    ys = np.random.default_rng(3).random(n)
    flat = f.inverse(ys)
    assert flat.shape == ys.shape
    assert np.array_equal(bits(flat), bits(scalar_inverse(f._spline, ys)))
    grid = ys.reshape(2, -1) if n % 2 == 0 else ys.reshape(3, -1)
    assert np.array_equal(bits(f.inverse(grid)), bits(flat.reshape(grid.shape)))
    assert np.array_equal(bits(f.inverse(grid.T)), bits(flat.reshape(grid.shape).T))


def test_spline_tree_falls_back_to_a_shallower_depth():
    # A 1e-14-wide segment runs out of distinct midpoints before TREE_DEPTH
    # levels, so a deeper table would not be sorted.
    g = spline("t", [(0.0, 0.0), (0.5, 0.5), (0.5 + 1e-14, 0.5 + 1e-14), (1.0, 1.0)])
    depth, keys, bounds = g._spline.tree
    assert 0 < depth < TREE_DEPTH
    assert np.all(keys[1:] >= keys[:-1]) and bounds.size == keys.size + 1
    ys = probe_points(g._spline)
    got = g.inverse(ys)
    assert np.max(residual(g._spline, ys, got)) <= 1e-15
    ref = bits(got)
    assert np.array_equal(bits([g.inverse(float(t)) for t in ys]), ref)
    small = [g.inverse(ys[k:k + SCALAR_INVERSE_MAX])
             for k in range(0, ys.size, SCALAR_INVERSE_MAX)]
    assert np.array_equal(bits(np.concatenate(small)), ref)


def test_a_shallow_table_point_takes_the_re_solve(monkeypatch):
    # A depth-3 table: its leaves are 2^9 times wider than a full table's.
    # At the top of the last segment NEWTON_STEPS steps from the leaf leave
    # a residual of 3.7e-13, so the point is solved again, and the
    # re-solve's bisection lands it.
    g = spline("t", [(0.0, 0.0), (0.7326052432470341, 0.3070569584028871),
                     (0.7326052432470351, 0.3070569584028878), (1.0, 1.0)])
    assert g._spline.tree[0] == 3
    y = 0.9999999999999999
    sizes = []
    solve = generators._leaf_solve
    monkeypatch.setattr(generators, "_leaf_solve",
                        lambda d, y, *args: sizes.append(y.size) or solve(d, y, *args))
    xs = g.inverse(np.full(8192, y))
    assert sizes == [8192] * 2
    x = g.inverse(y)
    assert type(x) is float and sizes[2:] == [1, 1]
    assert np.max(residual(g._spline, y, xs)) <= 1.2e-16 and abs(g.value(x) - y) <= 1.2e-16
    assert np.array_equal(bits(xs), bits(np.full(8192, x)))


def test_spline_inverse_checks_the_residual_of_the_returned_point(monkeypatch):
    # From the leaf midpoint one Newton step leaves residuals near 2e-8, so
    # at one step every point is solved again, and at two steps 981 of the
    # 1000, whose second step started above INVERSE_TOL.  The check passes
    # only if it reads the re-solved points, and only the re-solve's
    # bisection brings them within INVERSE_TOL: with none the call raises.
    f = build_pp()["f"]
    ys = np.random.default_rng(5).random(1000)
    for steps in (2, 1):
        monkeypatch.setattr(generators, "NEWTON_STEPS", steps)
        got = f.inverse(ys)
        assert np.max(residual(f._spline, ys, got)) <= INVERSE_TOL
        assert np.array_equal(bits([f.inverse(float(t)) for t in ys]), bits(got))
    monkeypatch.setattr(generators, "BISECT_STEPS", TREE_DEPTH)
    with pytest.raises(NumericError):
        f.inverse(ys)
    with pytest.raises(NumericError):
        [f.inverse(float(t)) for t in ys]


def small_slope_spline():
    return spline("t", [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)], end_slopes=(1e-5, 1.0))


def test_a_small_knot_slope_takes_the_bracketed_solve(monkeypatch):
    # Slope 1e-5 at 0 and curvature near 3.2: the root of y = 1e-10 lies near
    # 5.4e-6, outside Newton's quadratic range from its leaf's midpoint
    # 6.1e-5, where each step only halves the error.  Such points start
    # their last step above INVERSE_TOL, and the re-solve bisects their
    # leaves as the old whole-segment solve did.
    g = small_slope_spline()
    d = g._spline
    rng = np.random.default_rng(31)
    y = np.concatenate([[0.0, 5e-324, 1e-14, 1e-10], 1e-8 * rng.random(500), rng.random(500)])
    sizes = []
    solve = generators._leaf_solve
    monkeypatch.setattr(generators, "_leaf_solve",
                        lambda d, y, *args: sizes.append(y.size) or solve(d, y, *args))
    for block in (y, np.sort(y)):  # the bucket index and searchsorted
        sizes.clear()
        got = _spline_inverse(d, block)
        assert sizes[0] == y.size and 0 < sizes[1] < y.size and len(sizes) == 2
        assert np.max(residual(d, block, got)) <= INVERSE_TOL
        assert np.array_equal(bits(got), bits(whole_spline_solve(d, block)))
        assert np.array_equal(bits(scalar_inverse(d, block)), bits(got))
    assert_near_mp_roots(d, y[:20], got[np.searchsorted(np.sort(y), y[:20])])
    assert g.inverse(1e-10) == got[np.searchsorted(np.sort(y), 1e-10)]
    monkeypatch.setattr(generators, "BISECT_STEPS", TREE_DEPTH)
    with pytest.raises(NumericError):
        _spline_inverse(d, y)
    with pytest.raises(NumericError):
        g.inverse(1e-10)


def test_the_knot_patch_keeps_the_right_knot_residual(monkeypatch):
    # Where Newton reaches a segment's right knot x1 the spline reads the
    # next segment's value y1 there.  The patch gives Newton and the
    # residual check that value, so the check sees the spline's own
    # residual, 5.55e-16 at most on the probe points.  Without it the check
    # reads this segment's cubic, which ends 5e-13 below y1.
    d = right_knot_spline()
    ys = probe_points(d)
    checked = []
    check = generators._check_residual
    monkeypatch.setattr(generators, "_check_residual",
                        lambda resid: checked.append(np.max(resid)) or check(resid))
    got = _spline_inverse(d, ys)
    assert max(checked) == np.max(residual(d, ys, got)) <= 5.6e-16
    checked.clear()
    monkeypatch.setattr(generators, "_patch_at_knot", lambda *args: None)
    _spline_inverse(d, ys)
    assert max(checked) > 1e-13


@pytest.mark.parametrize("newton_steps", [1, NEWTON_STEPS])
def test_bisection_never_moves_past_the_right_knot(monkeypatch, newton_steps):
    # For y between the cubic's end and the right knot's value y1, a
    # bisection midpoint at x1 reads y1 on the whole spline, so it never
    # counts as below, whatever the segment's own cubic gives: the table
    # keys it inf, and the re-solve's bisection patches it.  With the first
    # solve reporting every point unsettled every point takes the re-solve;
    # its Newton steps show a bracket that wrongly closed on x1, and a step
    # that skipped the knot's value.  The scalar path re-solves a point as a
    # one-point block.
    d = right_knot_spline()
    ys = d.ys[3] - np.linspace(1e-14, 4e-13, 40)
    monkeypatch.setattr(generators, "NEWTON_STEPS", newton_steps)
    ref = bits(whole_spline_solve(d, ys))
    assert np.array_equal(bits(_spline_inverse(d, ys)), ref)
    assert np.array_equal(bits(scalar_inverse(d, ys)), ref)
    solve = generators._leaf_solve

    def unsettled(d, y, *args):
        x, resid, _ = solve(d, y, *args)
        return x, resid, np.ones(y.shape, bool)

    monkeypatch.setattr(generators, "_leaf_solve", unsettled)
    ref = bits(whole_spline_solve(d, ys, resolve_all=True))
    assert np.array_equal(bits(_spline_inverse(d, ys)), ref)
    one_point_blocks = [generators._spline_inverse_block(d, ys[k:k + 1])[0]
                        for k in range(ys.size)]
    assert np.array_equal(bits(np.concatenate(one_point_blocks)), ref)


def test_shipped_splines_use_the_full_tree():
    # The splines of every config in configs/ (none defines a blend) and
    # those of spline_maps all look up TREE_DEPTH levels, the depth that
    # NEWTON_STEPS steps from a leaf are made for.
    maps = {}
    for path in sorted((Path(__file__).parent.parent / "configs").glob("*.ini")):
        cfg = load_config(str(path))
        if cfg.command == "wreath":  # builds its pair as the wreath preset does
            cfg.generators = {"preset": "wreath"}
        for g in build_generator_set(cfg)[0].generators:
            maps[f"{path.stem}:{g.id}"] = g
    maps.update({f"spline_maps:{g.id}": g for g in spline_maps()})
    assert {k: g._spline.tree[0] for k, g in maps.items()} == dict.fromkeys(maps, TREE_DEPTH)


@pytest.mark.parametrize("gmap", all_test_maps(), ids=lambda g: g.id)
def test_nan_input_raises_domain_error(gmap):
    for op in (gmap.value, gmap.deriv, gmap.inverse):
        with pytest.raises(DomainError):
            op(math.nan)
        with pytest.raises(DomainError):
            op(np.array([0.5, math.nan]))


def test_inverse_residual_check_fails_closed_on_nan():
    d = build_pp()["f"]._spline
    for n in (1, 8192):
        ys = np.full(n, 0.5)
        ys[-1] = math.nan
        with pytest.raises(NumericError):
            _spline_inverse(d, ys)
    with pytest.raises(NumericError):
        _invert_monotone(lambda t: t * math.nan, np.ones_like,
                         np.array([0.5]), 0.0, 1.0)
    with pytest.raises(NumericError):
        _invert_monotone(lambda t: t * math.nan, lambda t: 1.0, 0.5, 0.0, 1.0)


@pytest.mark.parametrize("n", [33, 16383, 16384, 40967, dl.action._PARALLEL_MIN])
def test_an_array_inverse_is_one_block_call(monkeypatch, n):
    # map_row_blocks is the only code that cuts arrays, so a whole row
    # block, or any larger array, is one block solve.
    sizes = []
    block = generators._spline_inverse_block

    def spy(d, y):
        sizes.append(y.size)
        return block(d, y)

    d = build_pp()["g"]._spline
    ys = np.random.default_rng(n).random(n)
    ref = bits(block(d, ys)[0])
    monkeypatch.setattr(generators, "_spline_inverse_block", spy)
    assert np.array_equal(bits(_spline_inverse(d, ys)), ref)
    assert sizes == [n]


def test_pool_threads_give_the_one_thread_bits(monkeypatch):
    # Three pool threads invert blocks on one spline whose table and bucket
    # index are not built yet.
    f = build_pp()["f"]._spline
    y = np.random.default_rng(29).random(12 * 2048)
    one = bits(scalar_inverse(f, y))
    d = dataclasses.replace(f)
    assert "tree" not in vars(d) and "leaf_buckets" not in vars(d)
    monkeypatch.setattr(dl.action, "_PARALLEL_MIN", 2048)
    parts = dl.action.map_row_blocks(lambda a, b: _spline_inverse(d, y[a:b]), y.size, 3)
    assert len(parts) == 12 and np.array_equal(bits(np.concatenate(parts)), one)


def sorted_blocks(d):
    """Sorted clustered blocks of 8,192 points, each in at most three leaves.

    One block per knot value (the value, 1 ulp either side, so 0 and 1 too)
    and one cluster 1e-9 wide; on the right-knot spline also the points
    just below its short segment's right knot.
    """
    steps = np.repeat([-1, 0, 1], [2730, 2731, 2731])
    blocks = [np.clip(y + steps * math.ulp(y), 0.0, 1.0) for y in d.ys.tolist()]
    blocks.append(np.sort(0.37 + 1e-9 * np.random.default_rng(13).random(8192)))
    if len(d.ys) == 6:
        blocks.append(np.sort(np.repeat(d.ys[3] - np.linspace(1e-14, 4e-13, 32), 256)))
    return blocks


@pytest.mark.parametrize("name, d", route_splines(), **ROUTE_IDS)
def test_sorted_route_is_bitwise_the_whole_spline_solve(name, d):
    # Sorted blocks find their leaves by searchsorted and never build the
    # bucket index; the scalar path finds them by bisect_left.  Both give
    # the leaves of the live bisection, so the same Newton steps.
    if name == "narrow":
        assert d.tree[0] < TREE_DEPTH  # a shallower table: wider leaves
    d = dataclasses.replace(d)
    for y in sorted_blocks(d):
        ref = bits(whole_spline_solve(d, y))
        assert np.array_equal(bits(_spline_inverse(d, y)), ref)
        assert np.array_equal(bits(scalar_inverse(d, y)), ref)
    assert "leaf_buckets" not in vars(d)


@pytest.mark.parametrize("name, d", route_splines(), **ROUTE_IDS)
def test_stored_subtrees_give_the_whole_spline_solve(name, d):
    # The table stores the top levels of every segment's bisection subtree.
    # Built first by the array path or by the scalar path, it is the same
    # table and gives the same bits.
    y = lookup_points(d)
    ref = bits(whole_spline_solve(d, y))
    by_array, by_scalar = dataclasses.replace(d), dataclasses.replace(d)
    assert np.array_equal(bits(_spline_inverse(by_array, y)), ref)
    assert np.array_equal(bits(scalar_inverse(by_scalar, y[:200])), ref[:200])
    assert "tree" in vars(by_scalar) and "leaf_buckets" not in vars(by_scalar)
    assert by_array.tree[0] == by_scalar.tree[0] == d.tree[0]
    for a, b in zip(by_array.tree[1:], by_scalar.tree[1:]):
        assert np.array_equal(bits(a), bits(b))


@pytest.mark.parametrize("name, d", route_splines(), **ROUTE_IDS)
def test_live_steps_test_the_right_knot_only_from_a_segments_last_leaf(monkeypatch, name, d):
    # Each Newton step is clipped to its leaf, so an iterate reaches the
    # right knot x1 only from a leaf whose hi is x1: a segment's last leaf.
    # The patch is handed exactly those points, and every point of the
    # block that meets its own segment's x1 is among them.  The float below
    # each interior knot's value lies in that last leaf.
    depth, keys, _ = d.tree
    y = np.concatenate([np.random.default_rng(19).random(9000), np.nextafter(d.ys[1:-1], 0.0)])
    leaf = np.searchsorted(keys, y) - 1
    last = leaf % (1 << depth) == (1 << depth) - 1
    calls, block_x1 = [], {}
    patch = generators._patch_at_knot

    def spy(x, edge, *args):
        calls.append((edge.copy(), np.flatnonzero(x == block_x1["x1"])))
        return patch(x, edge, *args)

    monkeypatch.setattr(generators, "_patch_at_knot", spy)
    for keep in (~last, np.ones(y.size, bool)):
        block, in_last = y[keep], last[keep]
        block_x1["x1"] = d.xs[1:][leaf[keep] >> depth]
        ref = bits(whole_spline_solve(d, block))
        calls.clear()
        assert np.array_equal(bits(_spline_inverse(d, block)), ref)
        assert len(calls) == NEWTON_STEPS + 1
        for edge, hits in calls:
            assert np.array_equal(edge, np.flatnonzero(in_last))
            assert np.isin(hits, edge).all()
    if name == "right_knot":  # the cubic ends below y1: Newton meets x1
        assert sum(hits.size for _, hits in calls) > 0


def test_sorted_route_fails_closed_on_nan():
    # NaN never makes a block look decreasing, so these take searchsorted.
    d = build_pp()["f"]._spline
    y = sorted_blocks(d)[-1]
    for k in (y.size - 1, y.size // 2):
        bad = y.copy()
        bad[k] = math.nan
        assert not np.any(bad[1:] < bad[:-1])
        with pytest.raises(NumericError):
            _spline_inverse(d, bad)


# -- the table lookup: a bucket index for blocks whose y decrease somewhere ----

def lookup_points(d):
    """10^5 random points, every key and 1 ulp either side, 0, 1 and the knot
    values, shuffled so that they decrease somewhere.  They are clipped to
    the inverse's domain [0, 1]: the first key is -5e-324."""
    keys = d.tree[1]
    y = np.concatenate([np.random.default_rng(11).random(100_000), keys,
                        np.nextafter(keys, -np.inf), np.nextafter(keys, np.inf),
                        [0.0, 1.0], d.ys])
    y = np.clip(y, 0.0, 1.0)
    np.random.default_rng(12).shuffle(y)
    return y


@pytest.mark.parametrize("name, d", route_splines(), **ROUTE_IDS)
def test_bucket_index_gives_the_searchsorted_leaves(name, d):
    keys = d.tree[1]
    y = lookup_points(d)
    assert np.array_equal(_table_leaves(d, y), np.searchsorted(keys, y, side="left") - 1)
    # About one int32 entry per key: the scale is the power of two nearest
    # the key count, so the index is at most 0.71 times the keys' bytes.
    scale, start, _ = d.leaf_buckets
    assert start.dtype == np.int32 and start.size == scale + 1
    assert start.nbytes <= 0.75 * keys.nbytes


def test_only_blocks_that_decrease_read_the_bucket_index():
    d = dataclasses.replace(build_pp()["f"]._spline)
    y = np.sort(np.random.default_rng(14).random(8192))
    for block in (y, y[::-1][:SCALAR_INVERSE_MAX], np.repeat(y[:100], 3)):
        assert np.array_equal(bits(_spline_inverse(d, block)), bits(scalar_inverse(d, block)))
    assert "leaf_buckets" not in vars(d)
    block = y[::-1]
    assert np.array_equal(bits(_spline_inverse(d, block)), bits(scalar_inverse(d, block)))
    assert "leaf_buckets" in vars(d)


@pytest.mark.parametrize("n", [2 * SCALAR_INVERSE_MAX, 8192])
def test_bucket_index_fails_closed_on_nan(n):
    d = build_pp()["f"]._spline
    y = np.random.default_rng(n).random(n)
    for k in (0, n - 1):
        bad = y.copy()
        bad[k] = math.nan
        assert np.any(bad[1:] < bad[:-1])
        with pytest.raises(NumericError):
            _spline_inverse(d, bad)


def step_maps():
    """Every family, the route splines and the right-knot spline as maps."""
    t = spline("t", [(0.0, 0.0), (0.5, 0.5), (0.5 + 1e-14, 0.5 + 1e-14), (1.0, 1.0)])
    knot = dataclasses.replace(t, id="right_knot", _spline=right_knot_spline())
    return all_test_maps() + spline_maps()[2:] + [dataclasses.replace(t, id="narrow"), knot]


def step_points(g):
    """Random points, then every knot abscissa and value and the floats 1 ulp
    either side; on the right-knot spline also the values whose roots lie
    on its short segment's right knot."""
    knots = np.array([0.0, 0.5, 1.0])
    if g._spline is not None:
        knots = np.concatenate([g._spline.xs, g._spline.ys])
    near = np.concatenate([knots, np.nextafter(knots, 0.0), np.nextafter(knots, 1.0)])
    pts = [np.random.default_rng(37).random(3000), np.clip(near, 0.0, 1.0)]
    if g.id == "right_knot":
        pts.append(g._spline.ys[3] - np.linspace(1e-14, 4e-13, 40))
    return np.concatenate(pts)


@pytest.mark.parametrize("gmap", step_maps(), ids=lambda g: g.id)
def test_letter_step_is_bitwise_letter_value_and_deriv(gmap):
    # The point by point route (up to SCALAR_INVERSE_MAX points), a sorted
    # block (searchsorted), an unsorted one (the bucket index) and a 2-D one.
    pts = step_points(gmap)
    blocks = [pts[-SCALAR_INVERSE_MAX:], pts[-SCALAR_INVERSE_MAX - 1:], np.sort(pts), pts,
              pts[:3000].reshape(30, 100)]
    for sign in (1, -1):
        for x in blocks:
            y, d = letter_step(gmap, sign, x)
            ref = letter_value(gmap, sign, x)
            assert np.array_equal(bits(y), bits(ref))
            # g'(x) for g, 1 / g'(y) at the clipped preimage y for g^-1.
            ref_d = (gmap.deriv(x) if sign > 0
                     else 1.0 / gmap.deriv(np.clip(ref, 0.0, 1.0)))
            assert np.array_equal(bits(d), bits(ref_d))
            assert y.shape == d.shape == x.shape
        for x in (blocks[0], pts):
            bad = x.copy()
            bad[len(bad) // 2] = math.nan
            with pytest.raises(DomainError):
                letter_step(gmap, sign, bad)
    if gmap.id == "right_knot":  # some roots lie on a right knot: the next segment's slope
        x = gmap.inverse(pts)
        assert np.any(np.isin(x, gmap._spline.xs[1:-1]) & ~np.isin(pts, gmap._spline.ys))

