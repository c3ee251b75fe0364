"""Generator families: values, derivatives, inverses, certified bounds."""

import dataclasses
import math
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.config import build_generator_set, load_config
import diffeolab.generators as generators
from diffeolab.generators import (BISECT_STEPS, INVERSE_BLOCK, NEWTON_STEPS,
                                  SCALAR_INVERSE_MAX, TREE_DEPTH, _invert_monotone,
                                  _invert_monotone_scalar, _spline_deriv,
                                  _spline_inverse, _spline_inverse_scalar,
                                  _spline_value, _table_leaves, build_pp, blend, mobius,
                                  polybump, spline)
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


# -- the per-segment spline inverse and the scalar path ------------------------

def spline_maps():
    f, g = build_pp().generators
    pair = build_wreath_pair(0.1, (0.40, 0.42), 3)
    # The non-vacuous wreath pair that perfbench's wreath_search also runs.
    fine = build_wreath_pair(0.05, (0.40, 0.41), 3)
    return [f, g, blend("b", f, 0.5), pair.u, pair.v,
            dataclasses.replace(fine.u, id="u05"), dataclasses.replace(fine.v, id="v05")]


def whole_spline_inverse(d, y, newton_steps=NEWTON_STEPS):
    """Reference: bisection and Newton on the whole spline, one segment as bracket."""
    i = np.clip(np.searchsorted(d.ys, y, side="right") - 1, 0, len(d.ys) - 2)
    x = _invert_monotone(lambda t: _spline_value(d, t),
                         lambda t: _spline_deriv(d, t), y, d.xs[i], d.xs[i + 1],
                         newton_steps=newton_steps)
    x = np.where(y == d.ys[i], d.xs[i], x)
    return np.where(y == d.ys[-1], d.xs[-1], x)


def probe_points(d):
    """10^5 random points, every knot value and the values 1 ulp either side."""
    knots = np.concatenate([d.ys, np.nextafter(d.ys, 0.0), np.nextafter(d.ys, 1.0)])
    return np.concatenate([np.random.default_rng(7).random(100_000), knots])


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("gmap", spline_maps(), ids=lambda g: g.id)
def test_spline_inverse_bitwise_equals_whole_spline_solve(gmap):
    ys = probe_points(gmap._spline)
    assert np.array_equal(bits(gmap.inverse(ys)),
                          bits(whole_spline_inverse(gmap._spline, ys)))


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


@pytest.mark.parametrize("n", [SCALAR_INVERSE_MAX, INVERSE_BLOCK + 1])
def test_spline_inverse_keeps_shape_and_values(n):
    f = build_pp()["f"]
    ys = np.random.default_rng(3).random(n)
    flat = f.inverse(ys)
    assert flat.shape == ys.shape
    assert np.array_equal(bits(flat), bits(whole_spline_inverse(f._spline, ys)))
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
    ref = bits(whole_spline_inverse(g._spline, ys))
    assert np.array_equal(bits(g.inverse(ys)), ref)
    assert np.array_equal(bits([g.inverse(float(t)) for t in ys]), ref)
    small = [g.inverse(ys[k:k + SCALAR_INVERSE_MAX])
             for k in range(0, ys.size, SCALAR_INVERSE_MAX)]
    assert np.array_equal(bits(np.concatenate(small)), ref)


def test_spline_inverse_checks_the_residual_of_the_returned_point(monkeypatch):
    # The bisection midpoint is ~1e-7 off and one Newton step lands within
    # INVERSE_TOL, so the check passes only if it sees the polished point.
    f = build_pp()["f"]
    ys = np.random.default_rng(5).random(1000)
    monkeypatch.setattr(generators, "NEWTON_STEPS", 1)
    ref = bits(whole_spline_inverse(f._spline, ys, newton_steps=1))
    assert np.array_equal(bits(f.inverse(ys)), ref)
    assert np.array_equal(bits([f.inverse(float(t)) for t in ys]), ref)
    monkeypatch.setattr(generators, "NEWTON_STEPS", 0)
    with pytest.raises(NumericError):
        f.inverse(ys)


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


@pytest.mark.parametrize("newton_steps", [1, NEWTON_STEPS])
def test_bisection_never_moves_past_the_right_knot(monkeypatch, newton_steps):
    # For y between the cubic's end and the right knot's value y1, the
    # bracket closes on the float below x1 and x1, and x1 (even last bit) is
    # the rounded midpoint of the two.  The whole-spline solve reads y1
    # there, so that midpoint must not count as below, whatever the
    # segment's own cubic gives.  Four Newton steps swing between the two
    # floats and end on x1 either way; one step shows a bracket that wrongly
    # closed on x1, and a Newton step that skipped the knot's value.
    d = right_knot_spline()
    ys = d.ys[3] - np.linspace(1e-14, 4e-13, 40)
    monkeypatch.setattr(generators, "NEWTON_STEPS", newton_steps)
    ref = bits(whole_spline_inverse(d, ys, newton_steps=newton_steps))
    assert np.array_equal(bits(_spline_inverse(d, ys)), ref)
    assert np.array_equal(bits([_spline_inverse_scalar(d, float(t)) for t in ys]), ref)


def test_shipped_splines_use_the_full_tree():
    # The splines of every config in configs/ (none defines a blend) and
    # those of spline_maps all look up TREE_DEPTH levels, the fast route.
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
    for n in (1, INVERSE_BLOCK):
        ys = np.full(n, 0.5)
        ys[-1] = math.nan
        with pytest.raises(NumericError):
            _spline_inverse(d, ys)
    with pytest.raises(NumericError):
        _invert_monotone(lambda t: t * math.nan, np.ones_like,
                         np.array([0.5]), 0.0, 1.0)
    with pytest.raises(NumericError):
        _invert_monotone_scalar(lambda t: t * math.nan, lambda t: 1.0, 0.5)


# -- the sorted route: per-leaf subtrees replace the live bisection steps -------

@pytest.fixture
def route_log(monkeypatch):
    """Whether each array block took the sorted route, in call order."""
    log = []
    route = generators._subtree_brackets

    def spy(d, y, leaf):
        brackets = route(d, y, leaf)
        log.append(brackets is not None)
        return brackets

    monkeypatch.setattr(generators, "_subtree_brackets", spy)
    return log


def route_splines():
    narrow = spline("t", [(0.0, 0.0), (0.5, 0.5), (0.5 + 1e-14, 0.5 + 1e-14), (1.0, 1.0)])
    return ([(g.id, g._spline) for g in spline_maps()]
            + [("narrow", narrow._spline), ("right_knot", right_knot_spline())])


def sorted_blocks(d):
    """Sorted clustered blocks of 8,192 points, each in at most three leaves.

    One block per knot value (the value, 1 ulp either side, so 0 and 1 too)
    and one cluster 1e-9 wide; on the right-knot spline also the points
    just below its short segment's right knot.
    """
    steps = np.repeat([-1, 0, 1], [2730, 2731, 2731])
    blocks = [np.clip(y + steps * math.ulp(y), 0.0, 1.0) for y in d.ys.tolist()]
    blocks.append(np.sort(0.37 + 1e-9 * np.random.default_rng(13).random(INVERSE_BLOCK)))
    if len(d.ys) == 6:
        blocks.append(np.sort(np.repeat(d.ys[3] - np.linspace(1e-14, 4e-13, 32), 256)))
    return blocks


@pytest.mark.parametrize("name, d", route_splines(), ids=lambda v: v if isinstance(v, str) else "")
def test_sorted_route_is_bitwise_the_whole_spline_solve(name, d, route_log):
    if name == "narrow":
        assert d.tree[0] < TREE_DEPTH  # a shallower tree: longer subtrees
    blocks = sorted_blocks(d)
    for y in blocks:
        assert np.array_equal(bits(_spline_inverse(d, y)), bits(whole_spline_inverse(d, y)))
    taken = [True] * len(blocks)
    if name == "right_knot":
        # Below x1 the short segment's last subtree rounds its midpoints to
        # x1, whose key is inf, so the block that also reaches the next leaf
        # is not sorted and takes the live steps.
        taken[3] = False
    assert route_log == taken


def test_route_falls_back_when_a_subtree_is_not_sorted(monkeypatch, route_log):
    d = build_pp()["f"]._spline
    d.tree  # built before the patch
    build = generators._bisection_keys

    def unsorted(*args):
        keys = build(*args)
        keys[0, 1:] = keys[0, :0:-1]
        return keys

    monkeypatch.setattr(generators, "_bisection_keys", unsorted)
    y = sorted_blocks(d)[-1]
    assert np.array_equal(bits(_spline_inverse(d, y)), bits(whole_spline_inverse(d, y)))
    assert route_log == [False]


def test_unsorted_blocks_take_the_live_steps(monkeypatch, route_log):
    # The route needs leaves that do not decrease, not sorted points: the
    # reversed 1e-9 cluster lies in one leaf and still takes it, the
    # reversed knot block spans two leaves and does not.  Unsorted blocks
    # build no subtree.
    d = build_pp()["f"]._spline
    d.tree  # built before the patch
    builds = []
    build = generators._bisection_bounds
    monkeypatch.setattr(generators, "_bisection_bounds",
                        lambda lo, *args: builds.append(len(lo)) or build(lo, *args))
    blocks = sorted_blocks(d)
    for y in (blocks[-1][::-1], blocks[1][::-1], np.random.default_rng(17).random(9000)):
        assert np.array_equal(bits(_spline_inverse(d, y)), bits(whole_spline_inverse(d, y)))
    assert route_log == [True, False, False] and builds == [1]


@pytest.mark.parametrize("leaves, taken", [(80, True), (90, False)])
def test_subtrees_stay_within_steps_times_the_block_size(leaves, taken, route_log):
    # 10,001 sorted points in one block: 90 leaves need fewer subtree keys
    # (92,160) than the 10 live steps evaluate cubics (100,010), but more
    # than 10 * INVERSE_BLOCK, so only 80 leaves (81,920 keys) take the route.
    d = build_pp()["f"]._spline
    depth, keys, _ = d.tree
    assert BISECT_STEPS - depth == 10
    k = np.linspace(100, keys.size - 100, leaves).astype(int)
    counts = np.diff(np.linspace(0, 10_001, leaves + 1).astype(int))
    y = np.repeat(0.5 * (keys[k] + keys[k + 1]), counts)
    assert np.unique(np.searchsorted(keys, y) - 1).size == leaves
    assert np.array_equal(bits(_spline_inverse(d, y)), bits(whole_spline_inverse(d, y)))
    assert route_log == [taken]


def test_sorted_route_fails_closed_on_nan(route_log):
    d = build_pp()["f"]._spline
    y = sorted_blocks(d)[-1]
    for k in (y.size - 1, y.size // 2):  # still sorted leaves, then not
        bad = y.copy()
        bad[k] = math.nan
        with pytest.raises(NumericError):
            _spline_inverse(d, bad)
    assert route_log == [True, False]


# -- the store of leaf subtrees: built once per spline, bounded, shared by threads

def store_bound(d):
    levels = BISECT_STEPS - d.tree[0]
    return (levels * INVERSE_BLOCK) >> levels


def other_leaf_blocks(d, avoid, blocks):
    """``blocks`` sorted blocks of ``store_bound(d)`` leaves each, none in avoid.

    Every leaf gets just enough points for its block to take the route.
    """
    depth, keys, _ = d.tree
    levels = BISECT_STEPS - depth
    k = np.flatnonzero(np.isfinite(keys[1:]) & (keys[1:] > keys[:-1]))
    k = k[~np.isin(k, list(avoid))][:blocks * store_bound(d)]
    # keys[k + 1] lies above leaf k's key and at its right end.
    return [np.repeat(keys[part + 1], -(-(1 << levels) // levels))
            for part in np.split(k, blocks)]


@pytest.mark.parametrize("name, d", route_splines(), ids=lambda v: v if isinstance(v, str) else "")
def test_stored_subtrees_give_the_whole_spline_solve(name, d, route_log):
    # Cold, warm, and after every leaf of the blocks was evicted.
    blocks = sorted_blocks(d)
    refs = [bits(whole_spline_inverse(d, y)) for y in blocks]
    keys = d.tree[1]
    touched = {k for y in blocks for k in (np.searchsorted(keys, y) - 1).tolist()}
    d.subtrees.clear()
    for state in ("cold", "warm", "evicted"):
        if state == "evicted":
            for y in other_leaf_blocks(d, touched, 2):
                _spline_inverse(d, y)
            assert touched.isdisjoint(d.subtrees)
        route_log.clear()
        for y, ref in zip(blocks, refs):
            assert np.array_equal(bits(_spline_inverse(d, y)), ref), state
        # As in the route test, the right-knot spline's fourth block is not sorted.
        assert route_log == [name != "right_knot" or n != 3 for n in range(len(blocks))]
        assert 0 < len(d.subtrees) <= store_bound(d)


def test_store_never_grows_past_its_bound(route_log):
    d = build_pp()["f"]._spline
    assert store_bound(d) == 80
    for y in other_leaf_blocks(d, (), 4):
        assert np.array_equal(bits(_spline_inverse(d, y)), bits(whole_spline_inverse(d, y)))
        assert len(d.subtrees) == 80
    assert route_log == [True] * 4
    # Each subtree owns its arrays, so evicting it frees them: a view would
    # keep its whole batch alive.
    assert all(a.base is None for subtree in d.subtrees.values() for a in subtree)


def test_threads_share_one_store(monkeypatch):
    # Three pool threads invert sorted blocks of 80 leaves each on one
    # spline, then the same blocks again in reverse order, and give the
    # one-thread bits.
    d = build_pp()["f"]._spline
    blocks = other_leaf_blocks(d, (), 12)
    one = [bits(_spline_inverse(dataclasses.replace(d), y)) for y in blocks]
    y = np.concatenate(blocks + blocks[::-1])
    monkeypatch.setattr(dl.action, "_PARALLEL_MIN", blocks[0].size)
    parts = dl.action.map_row_blocks(lambda a, b: _spline_inverse(d, y[a:b]), y.size, 3)
    assert len(parts) == 24 and len(d.subtrees) <= 80
    for got, ref in zip(parts, one + one[::-1]):
        assert np.array_equal(bits(got), ref)


def test_an_eviction_between_lookup_and_move_is_harmless():
    # The race on purpose: when a block finds its leaves stored, a second
    # thread inverts 80 other leaves, which evicts them all, and gets up to
    # a second to finish before the first thread moves its leaves to the
    # back.  Unguarded, that move raises KeyError; both blocks keep their bits.
    d = dataclasses.replace(build_pp()["f"]._spline)
    mine, other = other_leaf_blocks(d, (), 2)
    refs = [bits(_spline_inverse(dataclasses.replace(d), y)) for y in (mine, other)]
    rival = []

    class RacingStore(OrderedDict):
        def move_to_end(self, key, last=True):
            if not rival:
                rival.append(threading.Thread(
                    target=lambda: rival.append(_spline_inverse(d, other))))
                rival[0].start()
                rival[0].join(1.0)
            super().move_to_end(key, last)

    object.__setattr__(d, "subtrees", RacingStore())
    _spline_inverse(d, mine)
    got = _spline_inverse(d, mine)
    rival[0].join()
    assert np.array_equal(bits(got), refs[0]) and np.array_equal(bits(rival[1]), refs[1])
    assert set(d.subtrees) == set((np.searchsorted(d.tree[1], other) - 1).tolist())


@pytest.mark.parametrize("n", [33, 2 * INVERSE_BLOCK - 1, 2 * INVERSE_BLOCK, 5 * INVERSE_BLOCK + 7])
def test_inverse_blocks_stay_below_twice_the_block_size(monkeypatch, n):
    sizes = []
    block = generators._spline_inverse_block

    def spy(d, y):
        sizes.append(y.size)
        return block(d, y)

    monkeypatch.setattr(generators, "_spline_inverse_block", spy)
    d = build_pp()["g"]._spline
    ys = np.random.default_rng(n).random(n)
    assert np.array_equal(bits(_spline_inverse(d, ys)), bits(whole_spline_inverse(d, ys)))
    assert sum(sizes) == n and max(sizes) < 2 * INVERSE_BLOCK
    assert len(sizes) == max(1, n // INVERSE_BLOCK) and max(sizes) - min(sizes) <= 1


def test_flatten_scan_blocks_take_the_sorted_route(monkeypatch, tmp_path, route_log):
    # The nontrivial_point scan applies the witness v of flatten_pp_eps01.ini
    # to 10,001 sorted points, one block per letter: 199 of its 216 inverse
    # blocks take the route (92 %).  Its points crowd into a few leaves, so
    # the run builds 105 leaf subtrees (2,787 when every block built its
    # own), and no store ever holds more than its bound.
    from diffeolab import cli
    from diffeolab.action import word_values
    reports, builds = [], []
    monkeypatch.setattr(cli.reports, "emit_flatten", lambda rep, out: reports.append(rep) or [])
    build, stored = generators._bisection_bounds, generators._leaf_subtrees

    def count_leaves(lo, hi, levels):
        if levels < TREE_DEPTH:  # not a spline's own tree
            builds.append(len(lo))
        return build(lo, hi, levels)

    def check_bound(d, *args):
        subtrees = stored(d, *args)
        assert len(d.subtrees) <= store_bound(d)
        return subtrees

    monkeypatch.setattr(generators, "_bisection_bounds", count_leaves)
    monkeypatch.setattr(generators, "_leaf_subtrees", check_bound)
    config = Path(__file__).parent.parent / "configs" / "flatten_pp_eps01.ini"
    assert cli.main(["flatten", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert sum(builds) <= 110
    v = reports[0].v
    route_log.clear()
    word_values(v, np.linspace(0.0, 1.0, 10_001), build_pp())
    assert len(route_log) == sum(1 for letter in v.letters if letter.sign < 0)
    assert sum(route_log) >= 0.9 * len(route_log)


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


@pytest.mark.parametrize("name, d", route_splines(), ids=lambda v: v if isinstance(v, str) else "")
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
    y = np.sort(np.random.default_rng(14).random(INVERSE_BLOCK))
    for block in (y, y[:SCALAR_INVERSE_MAX], np.repeat(y[:100], 3)):
        assert np.array_equal(bits(_spline_inverse(d, block)), bits(whole_spline_inverse(d, block)))
    assert "leaf_buckets" not in vars(d)
    block = y[::-1]
    assert np.array_equal(bits(_spline_inverse(d, block)), bits(whole_spline_inverse(d, block)))
    assert "leaf_buckets" in vars(d)


@pytest.mark.parametrize("n", [SCALAR_INVERSE_MAX, INVERSE_BLOCK])
def test_bucket_index_fails_closed_on_nan(n):
    d = build_pp()["f"]._spline
    y = np.random.default_rng(n).random(n)
    for k in (0, n - 1):
        bad = y.copy()
        bad[k] = math.nan
        assert np.any(bad[1:] < bad[:-1])
        with pytest.raises(NumericError):
            _spline_inverse(d, bad)


@pytest.mark.parametrize("name, d", route_splines(), ids=lambda v: v if isinstance(v, str) else "")
def test_live_steps_test_the_right_knot_only_from_a_segments_last_leaf(monkeypatch, name, d):
    # A midpoint reaches the right knot x1 only from a bracket whose hi is
    # x1, and only a segment's last leaf starts with one, so a block without
    # such points never tests mid != x1.  The float below each interior
    # knot's value lies in that last leaf.
    depth, keys, _ = d.tree
    y = np.concatenate([np.random.default_rng(19).random(9000), np.nextafter(d.ys[1:-1], 0.0)])
    last = (np.searchsorted(keys, y) - 1) % (1 << depth) == (1 << depth) - 1
    blocks = [(y[~last], 0), (y, BISECT_STEPS - depth)]
    refs = [bits(whole_spline_inverse(d, block)) for block, _ in blocks]
    calls = []
    not_equal = np.not_equal
    monkeypatch.setattr(np, "not_equal", lambda *a, **k: calls.append(1) or not_equal(*a, **k))
    for (block, steps), ref in zip(blocks, refs):
        calls.clear()
        assert np.array_equal(bits(_spline_inverse(d, block)), ref)
        assert len(calls) == steps
