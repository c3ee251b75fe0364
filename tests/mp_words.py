"""A word's value and chain-rule derivative in mpmath, as an oracle for the
float evaluation.

Each spline letter is read from its float coefficients taken as exact: a
forward letter evaluates its segment's cubic and slope, and an inverse
letter finds its segment by the knot values and bisects that cubic to the
working precision.  The float word evaluates the same maps, so what
separates the two is the float path's rounding.
"""

import mpmath


def _segments(g):
    """g's knots and Hermite coefficients as lists of mpf; the right endpoint
    is a segment of its own, whose zero c2 and c3 give ys[-1] and ms[-1]."""
    d = g._spline
    if d is None:
        raise ValueError(f"{g.id!r} is not a spline")
    return [[mpmath.mpf(float(v)) for v in a]
            for a in (d.xs, d.ys, d.ms, [*d.c2, 0.0], [*d.c3, 0.0])]


def _segment(knots, t) -> int:
    """The last i with knots[i] <= t, the right endpoint a segment of its own."""
    return max(i for i, k in enumerate(knots) if k <= t)


def _cubic(seg, i, s):
    xs, ys, ms, c2, c3 = seg
    return ys[i] + s * (ms[i] + s * (c2[i] + s * c3[i]))


def _slope(seg, i, s):
    xs, ys, ms, c2, c3 = seg
    return ms[i] + s * (2 * c2[i] + 3 * c3[i] * s)


def _inverse(seg, y):
    """(x, segment of x) with the segment's cubic at x equal to y, to the
    working precision; y at or past the last knot value gives 1."""
    xs, ys = seg[0], seg[1]
    i = _segment(ys, y)
    if i == len(xs) - 1:
        return xs[i], i
    lo, hi = mpmath.mpf(0), xs[i + 1] - xs[i]
    for _ in range(mpmath.mp.prec + 8):
        mid = (lo + hi) / 2
        if _cubic(seg, i, mid) < y:
            lo = mid
        else:
            hi = mid
    return xs[i] + (lo + hi) / 2, i


def word_value_deriv(w, x, S, dps: int = 50):
    """(w(x), w'(x)) as mpf at ``dps`` digits, letters applied suffix first
    and each value clipped to [0, 1] as the float orbit clips it."""
    segs = {g.id: _segments(g) for g in S.generators}
    with mpmath.workdps(dps):
        x, dw = mpmath.mpf(float(x)), mpmath.mpf(1)
        for letter in reversed(w.letters):
            seg = segs[letter.gen]
            if letter.sign > 0:
                i = _segment(seg[0], x)
                y = _cubic(seg, i, x - seg[0][i])
                dw *= _slope(seg, i, x - seg[0][i])
            else:
                y, i = _inverse(seg, x)
                dw /= _slope(seg, i, y - seg[0][i])
            x = min(max(y, mpmath.mpf(0)), mpmath.mpf(1))
        return +x, +dw
