"""Exactly differentiable orientation-preserving diffeomorphisms of [0, 1].

Four families are provided:

* ``mobius(lam)``: x -> lam*x / ((1-x) + lam*x), with closed-form derivative
  lam/den^2 and closed-form inverse ``mobius(1/lam)``.
* ``polybump(c)``: x -> x + c*x^2*(1-x)^2, flat at both endpoints
  (f'(0) = f'(1) = 1); monotone for |c| < 5.
* ``spline(...)``: monotone C^1 piecewise-cubic Hermite through pinned knots.
  Interior slopes come from the Fritsch-Carlson limiter unless explicitly
  pinned; end slopes are always pinned.
* ``blend(base, t)``: knot-wise convex combination of a spline with the
  identity; ``t = 0`` reproduces the identity map exactly.

All maps fix 0 and 1 exactly in binary64 (the formulas avoid cancellation at
the endpoints), are strictly increasing, and carry certified global derivative
bounds: ``der_inf <= f' <= der_sup`` and ``|f'(y)-f'(z)| <= der_lip*|y-z|``.
Closed-form bounds are analytic; spline bounds come from exact per-segment
extrema of the derivative quadratic, so any dense sample must respect them.

Maps are immutable after construction and all evaluations are pure.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, DomainError, NumericError

#: Absolute tolerance accepted from the numeric inverse (splines, polybump).
INVERSE_TOL = 1e-12

#: Steps of polybump's numeric inverse (``_invert_monotone``): bisection on
#: [0, 1], then Newton polish.  The spline inverse takes ``NEWTON_STEPS``
#: Newton steps from its table leaf, and bisects down to ``BISECT_STEPS``
#: levels only to solve again the points whose last step started or ended
#: above ``INVERSE_TOL`` (``_spline_inverse_block``).
BISECT_STEPS = 22
NEWTON_STEPS = 4

#: Levels of the spline inverse's table (``_SplineData.tree``): one lookup
#: brackets each y's root within 2**-TREE_DEPTH of its segment, close enough
#: for ``NEWTON_STEPS`` steps from the bracket's midpoint unless a knot's
#: slope is small or the table is shallower (``_spline_inverse_block``).
TREE_DEPTH = 12

#: Arrays up to this size are inverted point by point on the scalar path: on
#: `pp`'s splines a point costs about 4 us there, and one block of 16 to 32
#: points 77-81 us sorted and 95-99 us unsorted, so blocks win from about
#: 20 and 24 points; at 24, flatten_pp's wall time moved by under 2 %.
SCALAR_INVERSE_MAX = 16


class Letter(NamedTuple):
    """One symbol of the symmetrized alphabet: a generator id and a sign."""

    gen: str
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    @property
    def text(self) -> str:
        return self.gen if self.sign > 0 else f"{self.gen}^-1"


def _checked(fn, x, what: str):
    """``fn`` at x, once x is checked to lie in [0, 1] (``what`` names it).

    A Python number goes to ``fn`` as a float; anything else goes as a
    float array, and a 0-d result comes back as a float.  Both checks are
    written as "inside" so that NaN fails them; an array's takes two
    reductions, whose ``initial`` lets an empty array pass.
    """
    if isinstance(x, (float, int)):
        x = float(x)
        if 0.0 <= x <= 1.0:
            return fn(x)
    else:
        a = np.asarray(x, dtype=float)
        if a.min(initial=0.0) >= 0.0 and a.max(initial=1.0) <= 1.0:
            v = fn(a)
            return float(v) if a.ndim == 0 else v
    raise DomainError(f"{what} outside [0.0, 1.0]")


@dataclass(frozen=True)
class _SplineData:
    """Hermite segment data: value = ys[i] + s*(ms[i] + s*(c2[i] + s*c3[i]))."""

    xs: np.ndarray
    ys: np.ndarray
    ms: np.ndarray
    c2: np.ndarray
    c3: np.ndarray

    @cached_property
    def floats(self) -> tuple:
        """(xs, ys, ms, c2, c3) as tuples of Python floats, for scalar calls."""
        return tuple(tuple(a.tolist())
                     for a in (self.xs, self.ys, self.ms, self.c2, self.c3))

    @cached_property
    def tree(self) -> tuple:
        """(depth, keys, bounds): ``depth`` levels of bisection of every segment.

        Segment i owns 2**depth entries, in order: its knot, then the
        midpoints of its bisection tree (``_bisection_bounds``).  ``bounds``
        holds the abscissae and ends with xs[-1]: leaf k brackets bounds[k],
        bounds[k + 1] in segment k >> depth, and keys[k] is the key of
        bounds[k].  A knot's key is the float just below ys[i], so it is
        below y exactly when the segment search (ys[i] <= y) goes right of
        it; a midpoint's key is the segment's cubic there, or inf at the
        right knot.  While the keys do not decrease, ``searchsorted(keys, y,
        side="left") - 1`` finds the leaf of the segment search plus
        ``depth`` bisection steps.  ``depth`` is the deepest level up to
        ``TREE_DEPTH`` whose keys do not decrease.
        """
        bounds = _bisection_bounds(self.xs[:-1], self.xs[1:], TREE_DEPTH)[:, :-1]
        s = bounds - self.xs[:-1, None]
        keys = _cubic(s, self.ys[:-1, None], self.ms[:-1, None], self.c2[:, None],
                      self.c3[:, None], out=np.empty_like(s))
        keys[bounds == self.xs[1:, None]] = np.inf
        keys[:, 0] = np.nextafter(self.ys[:-1], -np.inf)
        keys, bounds = keys.reshape(-1), np.append(bounds, self.xs[-1])
        depth = TREE_DEPTH
        while True:
            step = 1 << (TREE_DEPTH - depth)
            if not np.any(keys[step::step] < keys[:-step:step]):
                return (depth, np.ascontiguousarray(keys[::step]),
                        np.ascontiguousarray(bounds[::step]))
            depth -= 1

    @cached_property
    def leaf_buckets(self) -> tuple:
        """(scale, start, halves): a bucket index over the keys of ``tree``.

        ``scale`` is the power of two nearest the key count, and ``start[b]``
        counts the keys below b / scale, that is those whose ``floor(key *
        scale)`` is below b: both are exact, since scale is a power of two.
        A y in [0, 1] has floor(y * scale) = b, so at least ``start[b]`` and
        at most ``start[b + 1]`` keys lie below it: at most W more, W being
        the widest bucket.  ``halves`` are the steps of a branch-free binary
        search over those W + 1 counts, and ``start`` is lowered to at most
        ``keys.size - W``, which keeps every key the search reads in the
        table.
        """
        keys = self.tree[1]
        scale = 1 << round(math.log2(keys.size))
        start = np.searchsorted(keys, np.arange(scale + 1) / scale).astype(np.int32)
        widest = int(np.max(np.diff(start)))
        np.minimum(start, keys.size - widest, out=start)
        halves, count = [], widest + 1
        while count > 1:
            halves.append(count // 2)
            count -= count // 2
        return scale, start, tuple(halves)

    @cached_property
    def value_coefs(self) -> tuple:
        """The value's Horner coefficients, highest degree first, one entry
        per knot: the right endpoint is a segment of its own, whose zero
        cubic and quadratic terms give ys[-1] exactly at s == 0."""
        return np.append(self.c3, 0.0), np.append(self.c2, 0.0), self.ms, self.ys

    @cached_property
    def deriv_coefs(self) -> tuple:
        """The slope's Horner coefficients, padded as ``value_coefs``."""
        c3, c2, ms, _ = self.value_coefs
        return 3 * c3, 2 * c2, ms

    @cached_property
    def tree_views(self) -> tuple:
        """``tree`` with its arrays as memoryviews, which index to Python floats."""
        depth, keys, bounds = self.tree
        return depth, memoryview(keys), memoryview(bounds)


def _bisection_bounds(lo, hi, levels: int):
    """Row r: the 2**levels + 1 abscissae, in order, of ``levels`` levels of
    bisection of [lo[r], hi[r]], each midpoint ``0.5 * (lo + hi)``."""
    width = 1 << levels
    bounds = np.empty((len(lo), width + 1))
    bounds[:, 0], bounds[:, -1] = lo, hi
    for level in range(levels):
        step = width >> level
        mid = bounds[:, step // 2::step]
        np.add(bounds[:, :-1:step], bounds[:, step::step], out=mid)
        mid *= 0.5
    return bounds


def _fritsch_carlson_slopes(xs, ys, end_slopes, pins=None):
    """Knot slopes for a monotone cubic Hermite interpolant.

    Interior slopes start from secant averages and are shrunk onto the
    Fritsch-Carlson circle (alpha^2 + beta^2 <= 9) per segment.  Pinned slopes
    (both ends, plus any index listed in ``pins``) are never rescaled; if a
    pinned slope violates the circle the construction fails.
    """
    n = len(xs)
    h = np.diff(xs)
    delta = np.diff(ys) / h
    if np.any(delta <= 0):
        raise ConstructionError("knot values must be strictly increasing")
    m = np.empty(n)
    pinned = np.zeros(n, dtype=bool)
    pinned[0] = pinned[-1] = True
    m[0], m[-1] = end_slopes
    for i in range(1, n - 1):
        m[i] = 0.5 * (delta[i - 1] + delta[i])
    for i, slope in (pins or {}).items():
        if not 0 < i < n - 1:
            raise ConstructionError("slope pin index out of range")
        m[i] = slope
        pinned[i] = True
    if np.any(m < 0):
        raise ConstructionError("negative knot slope")
    for i in range(n - 1):
        a = m[i] / delta[i]
        b = m[i + 1] / delta[i]
        r = math.hypot(a, b)
        if r > 3.0:
            if pinned[i] and pinned[i + 1]:
                raise ConstructionError("pinned slopes violate monotonicity limiter")
            t = 3.0 / r
            if not pinned[i]:
                m[i] = t * a * delta[i]
            if not pinned[i + 1]:
                m[i + 1] = t * b * delta[i]
            # Re-check: with one side pinned the other may still be too steep.
            a = m[i] / delta[i]
            b = m[i + 1] / delta[i]
            if math.hypot(a, b) > 3.0 * (1 + 1e-12):
                raise ConstructionError("pinned slope too steep for monotonicity")
    return m


def _spline_from_knots(xs, ys, ms):
    h = np.diff(xs)
    delta = np.diff(ys) / h
    c2 = (3 * delta - 2 * ms[:-1] - ms[1:]) / h
    c3 = (ms[:-1] + ms[1:] - 2 * delta) / (h * h)
    return _SplineData(xs=xs, ys=ys, ms=ms, c2=c2, c3=c3)


def _segment_deriv_extrema(d: _SplineData, i: int, s_lo: float, s_hi: float):
    """Exact min/max of the derivative quadratic of segment i on [s_lo, s_hi]."""
    m, a2, a3 = d.ms[i], d.c2[i], d.c3[i]

    def dv(s):
        return m + s * (2 * a2 + 3 * a3 * s)

    cands = [dv(s_lo), dv(s_hi)]
    if a3 != 0.0:
        s_star = -a2 / (3 * a3)
        if s_lo < s_star < s_hi:
            cands.append(dv(s_star))
    return min(cands), max(cands)


def _segment_lip(d: _SplineData, i: int, s_lo: float, s_hi: float) -> float:
    # Second derivative is linear in s; extremes sit at the ends.
    return max(abs(2 * d.c2[i] + 6 * d.c3[i] * s_lo),
               abs(2 * d.c2[i] + 6 * d.c3[i] * s_hi))


@dataclass(eq=False)
class GeneratorMap:
    """One orientation-preserving diffeomorphism of [0, 1] fixing 0 and 1.

    ``der_inf``/``der_sup`` bound the derivative globally and ``der_lip``
    bounds its Lipschitz constant; all three are certified over-estimates.
    """

    id: str
    family: str
    params: dict
    der_inf: float
    der_sup: float
    der_lip: float
    _spline: _SplineData | None = field(default=None, repr=False)

    # -- evaluation ---------------------------------------------------------

    # Python numbers take a pure-float path that does the same arithmetic as
    # the array path, so both give bitwise-equal results: the closed forms
    # and polybump's inverse run unchanged on floats, and the spline kernels
    # have float twins below.

    def value(self, x):
        return _checked(self._value, x, "x")

    def deriv(self, x):
        return _checked(self._deriv, x, "x")

    def inverse(self, y):
        return _checked(self._inverse, y, "y")

    def _value(self, a):
        fam = self.family
        if fam == "mobius":
            lam = self.params["lam"]
            return lam * a / ((1.0 - a) + lam * a)
        if fam == "polybump":
            c = self.params["c"]
            t = a * (1.0 - a)
            return a + c * t * t
        if isinstance(a, float):
            return _spline_value_scalar(self._spline, a)
        return _spline_value(self._spline, a)

    def _deriv(self, a):
        fam = self.family
        if fam == "mobius":
            lam = self.params["lam"]
            den = (1.0 - a) + lam * a
            return lam / (den * den)
        if fam == "polybump":
            c = self.params["c"]
            return 1.0 + 2.0 * c * a * (1.0 - a) * (1.0 - 2.0 * a)
        if isinstance(a, float):
            return _spline_deriv_scalar(self._spline, a)
        return _spline_deriv(self._spline, a)

    def _inverse(self, a):
        fam = self.family
        if fam == "mobius":
            lam = self.params["lam"]
            inv = 1.0 / lam
            return inv * a / ((1.0 - a) + inv * a)
        if fam == "polybump":
            return _invert_monotone(self._value, self._deriv, a, 0.0, 1.0)
        if isinstance(a, float):
            return _spline_inverse_scalar(self._spline, a)
        return _spline_inverse(self._spline, a)

    # -- certified local analysis -------------------------------------------

    def deriv_range_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Certified (min, max) of the derivative over [lo, hi]."""
        if not 0.0 <= lo <= hi <= 1.0:
            raise DomainError("bad interval")
        if self.family == "mobius":
            d = sorted((float(self._deriv(np.float64(lo))),
                        float(self._deriv(np.float64(hi)))))
            return d[0], d[1]
        if self.family == "polybump":
            pts = [lo, hi]
            for r in ((3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6):
                if lo < r < hi:
                    pts.append(r)
            vals = [float(self._deriv(np.float64(p))) for p in pts]
            return min(vals), max(vals)
        return _spline_deriv_range(self._spline, lo, hi)

    def value_bracket(self, lo: float, hi: float) -> tuple[float, float]:
        """Certified bracket of the image of [lo, hi].

        For splines the bracket is rounded outward to the pinned knot values,
        which are exact by construction; closed forms evaluate directly.
        """
        if not 0.0 <= lo <= hi <= 1.0:
            raise DomainError("bad interval")
        if self._spline is None:
            return (float(self._value(np.float64(lo))),
                    float(self._value(np.float64(hi))))
        xs, ys = self._spline.xs, self._spline.ys
        i = int(np.searchsorted(xs, lo, side="right")) - 1
        j = int(np.searchsorted(xs, hi, side="left"))
        return float(ys[max(i, 0)]), float(ys[min(j, len(ys) - 1)])


def _spline_value(d: _SplineData, a):
    """``ys[i] + s*(ms[i] + s*(c2[i] + s*c3[i]))`` with s = a - xs[i]."""
    return _horner(*_segments(d, a), d.value_coefs).reshape(a.shape)


def _spline_deriv(d: _SplineData, a):
    """``ms[i] + s*(2*c2[i] + 3*c3[i]*s)`` with s = a - xs[i]."""
    return _horner(*_segments(d, a), d.deriv_coefs).reshape(a.shape)


def _segments(d: _SplineData, a):
    """(i, s) of the points of a, flattened: each one's segment i, the last
    i with xs[i] <= a, and s = a - xs[i].  The right endpoint is a segment
    of its own, and a point in [0, 1] (or NaN) always has one."""
    flat = a.reshape(-1)
    i = np.searchsorted(d.xs, flat, side="right")
    i -= 1
    s = np.take(d.xs, i)
    np.subtract(flat, s, out=s)
    return i, s


def _horner(i, s, coefs):
    """Horner in s over ``coefs`` (highest degree first) at segments i.

    Coefficients are gathered one at a time into one buffer and every step
    runs in place, rounding as the plain expression does; at s == 0, as on
    every knot, the result is the last coefficient exactly.
    """
    out = np.take(coefs[0], i)
    part = np.empty_like(out)
    for c in coefs[1:]:
        out *= s
        out += np.take(c, i, out=part, mode="clip")
    return out


def _spline_step(d: _SplineData, sign: int, a):
    """``letter_step`` of a spline letter on an array: the value and slope
    over one segment search, or the inverse and ``1 / g'`` there over the
    segments that its solve found.

    A root x at its segment's right knot x1 takes the next segment at
    s == 0, as ``_segments`` does, so its slope is bitwise ``_spline_deriv``'s.
    """
    flat = a.reshape(-1)
    if sign > 0:
        i, s = _segments(d, flat)
        y, dy = _horner(i, s, d.value_coefs), _horner(i, s, d.deriv_coefs)
    else:
        y, i = _spline_inverse_block(d, flat)
        i += y == np.take(d.xs[1:], i)
        s = np.take(d.xs, i)
        np.subtract(y, s, out=s)
        dy = _horner(i, s, d.deriv_coefs)
        np.divide(1.0, dy, out=dy)
    return y.reshape(a.shape), dy.reshape(a.shape)


def _spline_inverse(d: _SplineData, y):
    """Inverse of the spline, point by point on small inputs, else as one
    block; only ``action.map_row_blocks`` cuts arrays."""
    flat = y.reshape(-1)
    if flat.size <= SCALAR_INVERSE_MAX:
        out = np.array([_spline_inverse_scalar(d, t) for t in flat.tolist()], dtype=float)
    else:
        out = _spline_inverse_block(d, flat)[0]
    return out.reshape(y.shape)


def _spline_inverse_block(d: _SplineData, y):
    """Newton on each y's segment cubic from the midpoint of its table leaf;
    returns the roots and their segments.

    The leaf (``_table_leaves``) brackets the root, and ``_leaf_solve``
    takes ``NEWTON_STEPS`` steps from its midpoint.  Once a step starts
    within ``INVERSE_TOL``, Newton squares the residual.  Near a knot whose
    slope is small next to the cubic's curvature times the leaf's width,
    though, or on a shallower table's wider leaves, the root can lie
    outside Newton's quadratic range from the midpoint, and each step only
    halves the error.  So points whose last step started, or ended, above
    ``INVERSE_TOL`` are solved again, bisecting their leaf down to
    ``BISECT_STEPS`` levels before ``NEWTON_STEPS`` steps, and fail only if
    that ends above it.  ``_spline_inverse_scalar`` does the same arithmetic
    on floats.
    """
    depth, _, bounds = d.tree
    leaf = _table_leaves(d, y)
    lo, hi = np.take(bounds, leaf), np.take(bounds[1:], leaf)
    i = np.right_shift(leaf, depth, out=leaf)  # each point's segment
    x, resid, far = _leaf_solve(d, y, i, lo, hi, 0, NEWTON_STEPS)
    if far.any():
        x[far], resid[far], _ = _leaf_solve(d, y[far], i[far], lo[far], hi[far],
                                            BISECT_STEPS - depth, NEWTON_STEPS)
    _check_residual(resid)
    return x, i


def _leaf_solve(d: _SplineData, y, i, lo, hi, bisect: int, steps: int):
    """x in each bracket [lo, hi] of segment i where its cubic meets y,
    ``|cubic(x) - y|``, and where the last Newton step started or ended
    above ``INVERSE_TOL``.

    ``bisect`` steps narrow the bracket in place, then ``steps`` Newton
    steps, each clipped to it, run from its midpoint.  One Horner pass gives
    the cubic, rounded as in ``_spline_value``, and its derivative.  At the
    segment's right knot x1 the spline switches to the next segment, where
    s == 0 gives exactly that knot's value y1 and slope m1, and
    ``_patch_at_knot`` does the same here.  Every iterate lies in the
    bracket, so only points whose bracket ends at x1 (a segment's last
    leaf) can reach it, and only those are tested.  The residual is taken
    the same way at the final x, which lies in [x0, x1], so it is bitwise
    that of ``_spline_value(d, x)``; then a y equal to its left knot's
    value, or to 1, gets that knot exactly.
    """
    edge = np.flatnonzero(hi == np.take(d.xs[1:], i))
    x1, y1, m1 = (np.take(a[1:], i[edge]) for a in (d.xs, d.ys, d.ms))
    # Arrays are made in the order their predecessors die, so that a
    # block reuses its own freed memory instead of touching fresh pages.
    x0, y0, m0, c2, c3 = (np.take(a, i) for a in (d.xs, d.ys, d.ms, d.c2, d.c3))
    x, s, v, dv = np.empty_like(y), np.empty_like(y), np.empty_like(y), np.empty_like(y)
    far = np.zeros(y.shape, bool)
    for _ in range(bisect):
        np.add(lo, hi, out=x)
        x *= 0.5
        np.subtract(x, x0, out=s)
        _patch_at_knot(x, edge, x1, (_cubic(s, y0, m0, c2, c3, out=v), y1))
        below = v < y
        np.copyto(lo, x, where=below)
        np.copyto(hi, x, where=~below)
    np.add(lo, hi, out=x)
    x *= 0.5
    for left in range(steps, 0, -1):
        np.subtract(x, x0, out=s)
        np.multiply(s, c3, out=dv)
        np.add(dv, c2, out=v)
        dv += v
        v *= s
        v += m0
        dv *= s
        dv += v
        v *= s
        v += y0
        _patch_at_knot(x, edge, x1, (v, y1), (dv, m1))
        v -= y
        if left == 1:
            np.greater(np.abs(v, out=s), INVERSE_TOL, out=far)
        v /= dv
        x -= v
        np.maximum(x, lo, out=x)
        np.minimum(x, hi, out=x)
    np.subtract(x, x0, out=s)
    _patch_at_knot(x, edge, x1, (_cubic(s, y0, m0, c2, c3, out=v), y1))
    v -= y
    np.abs(v, out=v)
    far |= ~(v <= INVERSE_TOL)
    # Exact pinned-knot hits must come back exactly.
    np.copyto(x, x0, where=y == y0)
    np.copyto(x, d.xs[-1], where=y == d.ys[-1])
    return x, v, far


def _table_leaves(d: _SplineData, y):
    """Each y's leaf of ``d.tree``: ``searchsorted(keys, y, side="left") - 1``.

    y that do not decrease keep ``searchsorted``, which reuses each
    bracket for the next point; the bucket index, no faster end to end
    there, is then never built.  Otherwise each y starts at
    ``start[floor(y * scale)]`` of the bucket index ``d.leaf_buckets`` and
    takes its branch-free halvings, each ``leaf += half * (keys[leaf + half
    - 1] < y)``; this gives the same counts.  Every index is in range (the
    index is built so), and "clip" spares ``take`` a buffered copy.
    ``fmin`` sends NaN to the last bucket, where it never moves, so NaN
    still ends in the residual check.
    """
    keys = d.tree[1]
    if not np.any(y[1:] < y[:-1]):
        leaf = np.searchsorted(keys, y, side="left")
        leaf -= 1
        return leaf
    scale, start, halves = d.leaf_buckets
    b = np.multiply(y, scale)
    leaf = np.fmin(b, scale, out=b).astype(np.intp)
    np.copyto(leaf, np.take(start, leaf, mode="clip"))
    below = np.empty(y.shape, bool)
    for half in halves:
        np.less(np.take(keys[half - 1:], leaf, out=b, mode="clip"), y, out=below)
        np.add(leaf, half, out=leaf, where=below)
    leaf -= 1
    return leaf


def _patch_at_knot(x, edge, x1, *pairs):
    """Where ``x[edge] == x1``, set each ``out`` of ``pairs`` to its
    ``knot`` value; x1 and each ``knot`` are given at the points ``edge``."""
    hit = x[edge] == x1
    if hit.any():
        for out, knot in pairs:
            out[edge[hit]] = knot[hit]


def _cubic(s, y0, m0, c2, c3, out):
    """``y0 + s*(m0 + s*(c2 + s*c3))``, rounded as in ``_spline_value``, into out."""
    np.multiply(s, c3, out=out)
    out += c2
    out *= s
    out += m0
    out *= s
    out += y0
    return out


def _check_residual(resid):
    # Written as "all within" so that NaN fails it.
    if not np.all(resid <= INVERSE_TOL):
        raise NumericError(f"inverse did not converge (residual {np.max(resid):g})")


def _invert_monotone(value_fn, deriv_fn, y, lo, hi):
    """Safeguarded bisection plus Newton polish for a monotone map, on
    floats for a float y and on arrays for an array, with the same bits.

    The bracket moves by ``max(lo, mid * below)`` and ``min(hi, mid +
    below)``, exact as ``0 <= lo <= mid <= hi <= 1``.
    """
    up, down = (max, min) if isinstance(y, float) else (np.maximum, np.minimum)
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = value_fn(mid) < y
        lo = up(lo, mid * below)
        hi = down(hi, mid + below)
    x = 0.5 * (lo + hi)
    for _ in range(NEWTON_STEPS):
        step = (value_fn(x) - y) / deriv_fn(x)
        x = down(up(x - step, lo), hi)
    _check_residual(np.abs(value_fn(x) - y))
    return x


# The scalar path: the spline code above on Python floats.  ``bisect_right``
# is ``searchsorted(side="right")`` and min/max is ``np.clip``.

def _segment(knots, t) -> int:
    return min(max(bisect_right(knots, t) - 1, 0), len(knots) - 2)


def _spline_value_scalar(d: _SplineData, x: float) -> float:
    xs, ys, ms, c2, c3 = d.floats
    if x == xs[-1]:
        return ys[-1]
    i = _segment(xs, x)
    s = x - xs[i]
    return ys[i] + s * (ms[i] + s * (c2[i] + s * c3[i]))


def _spline_deriv_scalar(d: _SplineData, x: float) -> float:
    xs, ys, ms, c2, c3 = d.floats
    if x == xs[-1]:
        return ms[-1]
    i = _segment(xs, x)
    s = x - xs[i]
    return ms[i] + s * (2 * c2[i] + 3 * c3[i] * s)


def _spline_inverse_scalar(d: _SplineData, y: float) -> float:
    """``_spline_inverse_block`` on one float: its first solve, and the
    array path itself for a point that it would solve again."""
    xs, ys, ms, c2, c3 = d.floats
    depth, keys, bounds = d.tree_views
    leaf = bisect_left(keys, y) - 1
    i = leaf >> depth
    x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
    m0, m1, a2, a3 = ms[i], ms[i + 1], c2[i], c3[i]
    lo, hi = bounds[leaf], bounds[leaf + 1]
    x, r = 0.5 * (lo + hi), 0.0
    for _ in range(NEWTON_STEPS):
        if x == x1:
            v, dv = y1, m1
        else:
            s = x - x0
            v = s * a3 + a2
            dv = s * a3 + v
            v = v * s + m0
            dv = dv * s + v
            v = v * s + y0
        r = v - y
        x = min(max(x - r / dv, lo), hi)
    if not (abs(r) <= INVERSE_TOL and abs(_spline_value_scalar(d, x) - y) <= INVERSE_TOL):
        return float(_spline_inverse_block(d, np.array([y]))[0][0])
    if y == y0:
        return x0
    return xs[-1] if y == ys[-1] else x


# -- family constructors ------------------------------------------------------

def mobius(gid: str, lam: float) -> GeneratorMap:
    if not lam > 0:
        raise DomainError("mobius parameter must be positive")
    sup, inf = (lam, 1.0 / lam) if lam >= 1.0 else (1.0 / lam, lam)
    lip = 2.0 * lam * (lam - 1.0) if lam >= 1.0 else 2.0 * (1.0 - lam) / (lam * lam)
    return GeneratorMap(gid, "mobius", {"lam": float(lam)}, inf, sup, lip)


def polybump(gid: str, c: float) -> GeneratorMap:
    if not abs(c) < 5.0:
        raise DomainError("polybump parameter must satisfy |c| < 5")
    # max |d/dx x^2(1-x)^2| = 2*max|x(1-x)(1-2x)| = sqrt(3)/9 on [0, 1].
    dev = abs(c) * math.sqrt(3.0) / 9.0
    return GeneratorMap(gid, "polybump", {"c": float(c)},
                        1.0 - dev, 1.0 + dev, 2.0 * abs(c))


def spline(gid: str, knots, end_slopes=(1.0, 1.0), slope_pins=None,
           family: str = "spline") -> GeneratorMap:
    """Monotone cubic Hermite diffeomorphism through ``knots``.

    ``knots`` must start at (0, 0) and end at (1, 1).  ``slope_pins`` maps
    interior knot indices to fixed slopes (used by constructions that need
    identity segments); unpinned interior slopes follow Fritsch-Carlson.
    """
    xs = np.array([k[0] for k in knots], dtype=float)
    ys = np.array([k[1] for k in knots], dtype=float)
    if len(xs) < 2 or xs[0] != 0.0 or ys[0] != 0.0 or xs[-1] != 1.0 or ys[-1] != 1.0:
        raise ConstructionError("knots must run from (0,0) to (1,1)")
    if np.any(np.diff(xs) <= 0):
        raise ConstructionError("knot abscissae must be strictly increasing")
    ms = _fritsch_carlson_slopes(xs, ys, end_slopes, slope_pins)
    data = _spline_from_knots(xs, ys, ms)
    inf, sup, lip = math.inf, -math.inf, 0.0
    for i in range(len(xs) - 1):
        h = xs[i + 1] - xs[i]
        d_lo, d_hi = _segment_deriv_extrema(data, i, 0.0, h)
        if d_lo <= 0.0:
            raise ConstructionError(f"segment {i} is not strictly monotone")
        inf, sup = min(inf, d_lo), max(sup, d_hi)
        lip = max(lip, _segment_lip(data, i, 0.0, h))
    return GeneratorMap(gid, family, {"knots": tuple(map(tuple, knots)),
                                      "end_slopes": tuple(end_slopes)},
                        inf, sup, lip, _spline=data)


def blend(gid: str, base: GeneratorMap, t: float) -> GeneratorMap:
    """Knot-wise convex blend of a spline with the identity (t=0 -> identity)."""
    if base._spline is None:
        raise ConstructionError("blend requires a spline-backed base map")
    if not 0.0 <= t <= 1.0:
        raise DomainError("blend weight must lie in [0, 1]")
    xs = base._spline.xs
    ys = (1.0 - t) * xs + t * base._spline.ys
    ends = (1.0 - t + t * base._spline.ms[0], 1.0 - t + t * base._spline.ms[-1])
    return spline(gid, list(zip(xs, ys)), end_slopes=ends, family="blend")


def _spline_deriv_range(d: _SplineData, lo: float, hi: float):
    i0 = max(int(np.searchsorted(d.xs, lo, side="right")) - 1, 0)
    i1 = min(int(np.searchsorted(d.xs, hi, side="left")), len(d.xs) - 1)
    out_lo, out_hi = math.inf, -math.inf
    for i in range(i0, max(i1, i0 + 1)):
        h = d.xs[i + 1] - d.xs[i]
        s_lo = max(lo - d.xs[i], 0.0)
        s_hi = min(hi - d.xs[i], h)
        if s_lo > s_hi:
            continue
        a, b = _segment_deriv_extrema(d, i, s_lo, s_hi)
        out_lo, out_hi = min(out_lo, a), max(out_hi, b)
    return out_lo, out_hi


def letter_bounds(g: GeneratorMap, sign: int) -> tuple[float, float, float]:
    """(inf, sup, lip) for the generator or its inverse as a letter."""
    if sign > 0:
        return g.der_inf, g.der_sup, g.der_lip
    return (1.0 / g.der_sup, 1.0 / g.der_inf,
            g.der_lip / g.der_inf ** 3)


def letter_deriv_range(g: GeneratorMap, sign: int, lo: float, hi: float):
    """Certified (min, max) of the letter's derivative over [lo, hi]: g's
    own range, or for g^-1 the reciprocal of g's over the zone's preimage."""
    if sign > 0:
        return g.deriv_range_on(lo, hi)
    # Certified preimage of the zone, padded outward by the inverse tolerance.
    p_lo = max(g.inverse(lo) - 1e-9, 0.0)
    p_hi = min(g.inverse(hi) + 1e-9, 1.0)
    d_lo, d_hi = g.deriv_range_on(p_lo, p_hi)
    return 1.0 / d_hi, 1.0 / d_lo


def letter_value(g: GeneratorMap, sign: int, x):
    """The letter g (sign +1) or g^-1 (sign -1) at x."""
    return g.value(x) if sign > 0 else g.inverse(x)


def letter_step(g: GeneratorMap, sign: int, x):
    """The letter's values y at x and its derivatives there: ``letter_value(g,
    sign, x)``, and g'(x) for g or 1 / g'(y) for g^-1, whose values y are
    the preimages already solved, in [0, 1] for every family.

    A spline letter on more than ``SCALAR_INVERSE_MAX`` points finds each
    point's segment once for both (``_spline_step``), with the same bits.  A
    Python float has no ``size`` and takes the point route without a numpy
    call.
    """
    if g._spline is None or getattr(x, "size", 1) <= SCALAR_INVERSE_MAX:
        y = letter_value(g, sign, x)
        return y, g.deriv(x) if sign > 0 else 1.0 / g.deriv(y)
    return _checked(partial(_spline_step, g._spline, sign), x, "x" if sign > 0 else "y")


class GeneratorSet:
    """A finite symmetric generating set with its certified constants.

    ``alphabet`` lists letters in canonical order: generators in the given
    order, positive sign before negative.  ``m_double`` is twice the largest
    over generator pairs of the sum of their derivative sups.  ``lip_max``
    bounds the derivative Lipschitz constant over all letters, inverses
    included.
    """

    def __init__(self, generators):
        gens = tuple(generators)
        if not gens:
            raise ConstructionError("empty generator set")
        ids = [g.id for g in gens]
        if len(set(ids)) != len(ids):
            raise ConstructionError("duplicate generator ids")
        self.generators = gens
        self._by_id = {g.id: g for g in gens}
        self.alphabet = tuple(Letter(g.id, s) for g in gens for s in (1, -1))
        sups = sorted((g.der_sup for g in gens), reverse=True)
        self.m_double = 2.0 * (sups[0] + (sups[1] if len(sups) > 1 else sups[0]))
        self.lip_max = max(letter_bounds(g, s)[2] for g in gens for s in (1, -1))

    def __getitem__(self, gid: str) -> GeneratorMap:
        try:
            return self._by_id[gid]
        except KeyError:
            raise DomainError(f"unknown generator id {gid!r}") from None

    def __contains__(self, gid: str) -> bool:
        return gid in self._by_id


# -- reference configuration --------------------------------------------------

#: Ping-pong intervals used by the built-in reference pair.
PP_I = (0.25, 0.35)
PP_J = (0.65, 0.75)


def build_pp() -> GeneratorSet:
    """Built-in reference ping-pong pair `pp`.

    f compresses [0.1, 0.9] into (0.251, 0.349) and g into (0.651, 0.749);
    both have unit end slopes so the flattening pipeline applies to them.
    """
    f = spline("f", [(0.0, 0.0), (0.1, 0.251), (0.9, 0.349), (1.0, 1.0)])
    g = spline("g", [(0.0, 0.0), (0.1, 0.651), (0.9, 0.749), (1.0, 1.0)])
    return GeneratorSet([f, g])
