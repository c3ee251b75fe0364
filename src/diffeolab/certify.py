"""Certificates for the search pipelines: semigroup ping-pong containment and
endpoint derivative control.

The ping-pong check is exact: containment of the monotone images is decided
from pinned knot values (rounded outward for splines) or closed-form endpoint
evaluation, so a valid certificate is a sound claim up to the rounding margin
``RHO``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .generators import GeneratorMap, GeneratorSet, Letter

#: Rounding slop absorbed by certificate margins.
RHO = 1e-9


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError("interval needs lo < hi")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class PingPongCertificate:
    """Containment certificate: f(I u J) inside I, g(I u J) inside J.

    A valid certificate implies distinct positive words in (f, g) define
    distinct maps.  ``margin`` is the smallest containment slack over all
    eight bracket endpoints; violations list (map id, source interval,
    endpoint value, bound) for every failed containment.
    """

    f_id: str
    g_id: str
    I: Interval
    J: Interval
    margin_f: float
    margin_g: float
    valid: bool
    violations: tuple = ()

    @property
    def margin(self) -> float:
        return min(self.margin_f, self.margin_g)


def _containment_margin(m: GeneratorMap, target: Interval, parts):
    worst = math.inf
    violations = []
    for part in parts:
        b_lo, b_hi = m.value_bracket(part.lo, part.hi)
        lo_slack = b_lo - target.lo
        hi_slack = target.hi - b_hi
        worst = min(worst, lo_slack, hi_slack)
        if lo_slack < RHO:
            violations.append((m.id, (part.lo, part.hi), b_lo, target.lo))
        if hi_slack < RHO:
            violations.append((m.id, (part.lo, part.hi), b_hi, target.hi))
    return worst, violations


def check_pingpong(f: GeneratorMap, g: GeneratorMap, I, J) -> PingPongCertificate:
    """Certify that f maps I u J into I and g maps I u J into J."""
    I = I if isinstance(I, Interval) else Interval(*I)
    J = J if isinstance(J, Interval) else Interval(*J)
    if not (0.0 < I.lo and I.hi < 1.0 and 0.0 < J.lo and J.hi < 1.0):
        raise PreconditionError("ping-pong intervals must sit inside (0, 1)")
    if I.overlaps(J):
        raise PreconditionError("ping-pong intervals must be disjoint")
    parts = (I, J)
    mf, vf = _containment_margin(f, I, parts)
    mg, vg = _containment_margin(g, J, parts)
    return PingPongCertificate(f_id=f.id, g_id=g.id, I=I, J=J,
                               margin_f=mf, margin_g=mg,
                               valid=mf >= RHO and mg >= RHO,
                               violations=tuple(vf + vg))


@dataclass(frozen=True)
class EndpointSlopeCheck:
    """Derivative control near an endpoint for the whole symmetrized alphabet.

    Passes when every letter keeps its derivative strictly inside
    (1/theta, theta) on the zone, certified by local range analysis and
    cross-checked on a 1000-point sample.
    """

    side: int
    delta: float
    theta: float
    passed: bool
    worst_letter: str = ""
    range_lo: float = math.nan
    range_hi: float = math.nan


def _letter_deriv_range(g: GeneratorMap, sign: int, lo: float, hi: float):
    if sign > 0:
        return g.deriv_range_on(lo, hi)
    # Certified preimage of the zone, padded outward by the inverse tolerance.
    p_lo = max(g.inverse(lo) - 1e-9, 0.0)
    p_hi = min(g.inverse(hi) + 1e-9, 1.0)
    d_lo, d_hi = g.deriv_range_on(p_lo, p_hi)
    return 1.0 / d_hi, 1.0 / d_lo


def check_endpoint_slopes(S: GeneratorSet, side: int, delta: float,
                          theta: float) -> EndpointSlopeCheck:
    if side not in (0, 1):
        raise DomainError("side must be 0 or 1")
    if not 0.0 < delta < 0.5:
        raise PreconditionError("delta must lie in (0, 0.5)")
    if not theta > 1.0:
        raise PreconditionError("theta must exceed 1")
    lo, hi = (0.0, delta) if side == 0 else (1.0 - delta, 1.0)
    xs = np.linspace(lo, hi, 1000)
    passed = True
    worst, worst_lo, worst_hi = "", math.nan, math.nan
    worst_excess = -math.inf
    for g in S.generators:
        for sign in (1, -1):
            r_lo, r_hi = _letter_deriv_range(g, sign, lo, hi)
            sampled = g.deriv(xs) if sign > 0 else 1.0 / g.deriv(g.inverse(xs))
            r_lo = min(r_lo, float(np.min(sampled)))
            r_hi = max(r_hi, float(np.max(sampled)))
            ok = r_lo > 1.0 / theta and r_hi < theta
            excess = max(1.0 / theta - r_lo, r_hi - theta)
            if excess > worst_excess:
                worst_excess = excess
                worst = Letter(g.id, sign).text
                worst_lo, worst_hi = r_lo, r_hi
            passed = passed and ok
    return EndpointSlopeCheck(side=side, delta=delta, theta=theta,
                              passed=passed, worst_letter=worst,
                              range_lo=worst_lo, range_hi=worst_hi)


def scan_endpoint_delta(S: GeneratorSet, side: int, theta: float,
                        start: float = 0.25, max_halvings: int = 60) -> float:
    """First ``start / 2^k``, halving from ``start``, that passes the
    endpoint slope check: the largest delta of that form that passes.

    Deterministic and guaranteed to terminate for alphabets whose letters all
    have unit derivative at the endpoint; otherwise raises.
    """
    delta = start
    for _ in range(max_halvings):
        if check_endpoint_slopes(S, side, delta, theta).passed:
            return delta
        delta *= 0.5
    raise PreconditionError(
        f"no admissible delta near side {side} for theta={theta}")


def positive_pair_separation(S: GeneratorSet, w1, w2, I: Interval, J: Interval,
                             points_per_part: int = 1001) -> float:
    """Max |w1(x) - w2(x)| over a grid on I u J (certificate spot check)."""
    from .action import word_values

    best = 0.0
    for part in (I, J):
        xs = np.linspace(part.lo, part.hi, points_per_part)
        best = max(best, float(np.max(np.abs(
            word_values(w1, xs, S) - word_values(w2, xs, S)))))
    return best
