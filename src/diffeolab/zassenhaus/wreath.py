"""Near-identity pair generating a lamplighter-type group: a bump ``u``
supported on a small core interval and a shift ``v`` whose iterates move the
core onto pairwise disjoint translates.

Both maps are piecewise-quadratic displacement profiles realized exactly as
pinned-slope cubic Hermite splines, so all the certified bound machinery of
:mod:`diffeolab.generators` applies.  Because the translated supports are
disjoint, ``u`` commutes with each conjugate ``v^k u v^-k`` and words over
``{u, v}`` have an exact normal form: a shift exponent plus an integer
coefficient per translate position.  The word problem is decided by that
normal form, not by floating-point evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..action import GridSpec, SupEstimate, c1_dist_to_id
from ..certify import Interval
from ..errors import ConstructionError, DomainError
from ..generators import GeneratorMap, GeneratorSet, Letter, spline
from ..words import Word

#: Clearance demanded between consecutive translated supports.
RHO = 1e-9


@dataclass(frozen=True)
class WreathNormalForm:
    """(shift, coefficients) with coefficients sorted by position, zero-free."""

    shift: int
    coeffs: tuple[tuple[int, int], ...] = ()

    @classmethod
    def identity(cls) -> "WreathNormalForm":
        return cls(0, ())

    @property
    def is_identity(self) -> bool:
        return self.shift == 0 and not self.coeffs

    def mul(self, other: "WreathNormalForm") -> "WreathNormalForm":
        """Group law: coefficients of ``other`` shift by this form's shift."""
        acc = dict(self.coeffs)
        for pos, c in other.coeffs:
            pos += self.shift
            acc[pos] = acc.get(pos, 0) + c
        coeffs = tuple(sorted((p, c) for p, c in acc.items() if c != 0))
        return WreathNormalForm(self.shift + other.shift, coeffs)


def wreath_normal_form(w: Word, u_id: str = "u", v_id: str = "v") -> WreathNormalForm:
    """Exact normal form of a word over the wreath alphabet.

    Scanning the written word left to right, each ``u`` occurrence lands at
    the position given by the v-exponent sum of the letters to its left.
    """
    shift = 0
    acc: dict[int, int] = {}
    for letter in w.letters:
        if letter.gen == v_id:
            shift += letter.sign
        elif letter.gen == u_id:
            acc[shift] = acc.get(shift, 0) + letter.sign
        else:
            raise DomainError(f"letter {letter.gen!r} outside wreath alphabet")
    coeffs = tuple(sorted((p, c) for p, c in acc.items() if c != 0))
    return WreathNormalForm(shift, coeffs)


@dataclass(frozen=True)
class WreathPair:
    """The built pair with its verification data."""

    u: GeneratorMap
    v: GeneratorMap
    core: Interval
    k: int
    translates: tuple[Interval, ...]      # v^j(core) for j = -k..k
    d1_u: SupEstimate
    d1_v: SupEstimate
    step: float                           # plateau displacement of v

    @property
    def generator_set(self) -> GeneratorSet:
        return GeneratorSet([self.u, self.v])

    def normal_form(self, w: Word) -> WreathNormalForm:
        return wreath_normal_form(w, self.u.id, self.v.id)


def _bump_spline(gid, a, b, s):
    """Identity outside [a, b]; piecewise-quadratic displacement bump inside.

    The displacement derivative is a triangle wave 0 -> s -> 0 -> -s -> 0 over
    quarters of the core, giving peak displacement s*(b-a)/4 at the midpoint.
    """
    w = b - a
    q = w / 4.0
    knots = [(0.0, 0.0), (a, a),
             (a + q, a + q + s * w / 8.0),
             (a + 2 * q, a + 2 * q + s * w / 4.0),
             (a + 3 * q, a + 3 * q + s * w / 8.0),
             (b, b), (1.0, 1.0)]
    pins = {1: 1.0, 2: 1.0 + s, 3: 1.0, 4: 1.0 - s, 5: 1.0}
    return spline(gid, knots, end_slopes=(1.0, 1.0), slope_pins=pins)


def _shift_spline(gid, x_r0, cw, s, d, x_f1):
    """Displacement ramps 0 -> D with slope-dev s, holds, then ramps down.

    Corner pieces of width ``cw`` keep the profile C^1; the flat-slope runs
    have derivative deviation exactly s, the plateau is an exact translation
    by ``d``.
    """
    run = d / s - cw                      # flat-slope run length per ramp
    x1 = x_r0 + cw
    x2 = x1 + run
    x_r1 = x2 + cw                        # plateau start
    x_f0 = x_f1 - cw - run - cw           # plateau end
    knots = [(0.0, 0.0), (x_r0, x_r0),
             (x1, x1 + s * cw / 2.0),
             (x2, x2 + d - s * cw / 2.0),
             (x_r1, x_r1 + d),
             (x_f0, x_f0 + d),
             (x_f0 + cw, x_f0 + cw + d - s * cw / 2.0),
             (x_f1 - cw, x_f1 - cw + s * cw / 2.0),
             (x_f1, x_f1), (1.0, 1.0)]
    pins = {1: 1.0, 2: 1.0 + s, 3: 1.0 + s, 4: 1.0, 5: 1.0,
            6: 1.0 - s, 7: 1.0 - s, 8: 1.0}
    return spline(gid, knots, end_slopes=(1.0, 1.0), slope_pins=pins), x_r1, x_f0


def build_wreath_pair(epsilon: float, core, k: int, *,
                      u_id: str = "u", v_id: str = "v") -> WreathPair:
    """Build the pair, or raise :class:`ConstructionError` when the geometry
    cannot fit: the shift must clear the core width in one step while keeping
    sup|v - id| + sup|v' - 1| under ``epsilon``, and every translate up to
    ``k`` steps must stay inside the shift's positive-displacement region.

    On failure the error carries the largest feasible ``k`` (possibly 0).
    """
    core = core if isinstance(core, Interval) else Interval(*core)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if k < 1:
        raise DomainError("k must be at least 1")
    a, b = core.lo, core.hi
    w = b - a
    if not (0.0 < a and b < 1.0):
        raise DomainError("core must sit inside (0, 1)")

    budget = 0.9 * epsilon                # headroom for grid certification
    x_r0, cw, x_f1 = 0.02, 0.02, 0.96
    if a <= x_r0 + 2 * cw or b >= x_f1 - 2 * cw:
        raise ConstructionError("core too close to the endpoints", feasible_k=0)

    # Shift displacement D: must exceed the core width, fit the rise run
    # before the core, and leave s_v = budget - D of slope budget.
    rise_room = a - x_r0 - cw
    d_max = rise_room * budget / (1.0 + rise_room)
    d = 1.15 * w
    if d > d_max:
        d = 0.5 * (1.05 * w + d_max)
    if not w * 1.02 + 4 * RHO < d <= d_max:
        raise ConstructionError(
            f"shift cannot clear a core of width {w:g} within epsilon={epsilon:g}",
            feasible_k=0)
    s_v = budget - d
    if s_v >= 1.0:
        s_v = 0.99
    # Keep the flat-slope run of each ramp at least one corner wide.
    s_v = min(s_v, d / (2.0 * cw))

    v, x_r1, x_f0 = _shift_spline(v_id, x_r0, cw, s_v, d, x_f1)
    if x_r1 > a or x_f0 < x_r1:
        raise ConstructionError("shift ramps do not fit around the core",
                                feasible_k=0)

    # Forward translates advance by exactly D while inside the plateau.
    feasible_k = int(math.floor((x_f0 - RHO - b) / d))
    if feasible_k < k:
        raise ConstructionError(
            f"only {feasible_k} disjoint translates fit for epsilon={epsilon:g}",
            feasible_k=max(feasible_k, 0))

    s_u = 0.5 * budget / (1.0 + w / 4.0)
    u = _bump_spline(u_id, a, b, s_u)

    # Post-verification: exact clearance, disjoint translates, d1 certificates.
    if not v.value(a) > b + RHO:
        raise ConstructionError("shift fails to clear the core", feasible_k=0)
    translates = [core]
    lo, hi = a, b
    for _ in range(k):
        lo, hi = v.value(lo), v.value(hi)
        translates.append(Interval(lo, hi))
    lo, hi = a, b
    for _ in range(k):
        lo, hi = v.inverse(lo), v.inverse(hi)
        translates.insert(0, Interval(lo, hi))
    for left, right in zip(translates, translates[1:]):
        if not left.hi + RHO < right.lo:
            raise ConstructionError("translated supports are not disjoint",
                                    feasible_k=0)
    if translates[0].lo <= x_r0 + RHO or translates[-1].hi >= x_f1 - RHO:
        raise ConstructionError("translates leave the displacement region",
                                feasible_k=0)

    grid = GridSpec(4000)
    s2 = GeneratorSet([u, v])
    d1_u = c1_dist_to_id(Word((Letter(u_id, 1),)), grid, s2)
    d1_v = c1_dist_to_id(Word((Letter(v_id, 1),)), grid, s2)
    if d1_u.certified_bound >= epsilon or d1_v.certified_bound >= epsilon:
        raise ConstructionError("certified distances exceed epsilon",
                                feasible_k=0)
    return WreathPair(u=u, v=v, core=core, k=k, translates=tuple(translates),
                      d1_u=d1_u, d1_v=d1_v, step=d)
