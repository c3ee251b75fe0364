"""Applying words to points: orbit traces, certified distances, ball probes.

Words act suffix-first: for ``W = h_n ... h_1`` the letter ``h_1`` (rightmost
in the written form) is applied first.  The chain-rule product of the
per-letter derivatives along the orbit equals the derivative of the composite
at the start point.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DomainError, PreconditionError
from .generators import INVERSE_TOL, GeneratorSet, Letter, letter_bounds, letter_step, \
    letter_value
from .words import Word, level_word, sphere_levels

#: Orbit points may leave [0, 1] by at most this much before it is an error.
CLAMP_TOL = 1e-12

#: Elements per row block of ``map_row_blocks``, which kernels take whole:
#: smaller blocks pay more numpy call overhead, larger ones more memory.
_PARALLEL_MIN = 1 << 15


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid 0, 1/N, ..., 1 with step tau = 1/N."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("grid needs at least 2 subintervals")

    @property
    def tau(self) -> float:
        return 1.0 / self.n

    def points(self) -> np.ndarray:
        return np.arange(self.n + 1, dtype=float) / self.n

    def interior_points(self) -> np.ndarray:
        return np.arange(1, self.n, dtype=float) / self.n


@dataclass(frozen=True)
class OrbitTrace:
    """Pointwise orbit of one word with per-letter derivatives."""

    x0: float
    points: tuple[float, ...]          # y_0 .. y_n
    letter_derivs: tuple[float, ...]   # h'_{k+1}(y_k)
    chain_product: float               # = W'(x0)

    @property
    def value(self) -> float:
        return self.points[-1]


def orbit(w: Word, xs, S: GeneratorSet, derivs: bool = False):
    """Apply ``w`` to a float or an array letter by letter, suffix first.

    Yields ``(g, sign, x, y, dy)`` per letter: the letter's generator and
    sign, the points it acts on and its values ``y`` there, clipped to
    [0, 1].  With ``derivs``, ``dy`` is the letter's derivative at ``x``
    from the same ``letter_step`` that gives ``y``; without, it is None.  A
    float that leaves [0, 1] by more than ``CLAMP_TOL`` raises; an array is
    clipped in place without a check.  ``y`` is the next letter's ``x``.
    """
    scalar = np.ndim(xs) == 0
    x = xs
    for letter in reversed(w.letters):
        g, sign = S[letter.gen], letter.sign
        y, dy = letter_step(g, sign, x) if derivs else (letter_value(g, sign, x), None)
        if not scalar:
            np.clip(y, 0.0, 1.0, out=y)
        elif y < -CLAMP_TOL or y > 1.0 + CLAMP_TOL:
            raise DomainError(f"orbit left [0,1] by more than {CLAMP_TOL}")
        else:
            y = min(max(y, 0.0), 1.0)
        yield g, sign, x, y, dy
        x = y


def apply_word(w: Word, x: float, S: GeneratorSet) -> OrbitTrace:
    """Apply ``w`` to ``x`` letter by letter, recording the full trace."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("point outside [0, 1]")
    x0 = float(x)
    pts = [x0]
    derivs = []
    for _, _, _, y, dy in orbit(w, x0, S, derivs=True):
        pts.append(y)
        derivs.append(dy)
    return OrbitTrace(x0=x0, points=tuple(pts),
                      letter_derivs=tuple(derivs),
                      chain_product=math.prod(derivs, start=1.0))


def word_values(w: Word, xs: np.ndarray, S: GeneratorSet) -> np.ndarray:
    """Vectorized w(xs); points are clipped to [0,1] after each letter.

    ``map_row_blocks`` cuts the points at one thread, so no letter's
    temporaries grow with them.
    """
    ys = np.array(xs, dtype=float)
    flat = ys.reshape(-1)

    def block(a, b):
        y = flat[a:b]
        for *_, y, _ in orbit(w, y, S):
            pass
        flat[a:b] = y

    map_row_blocks(block, flat.size, 1)
    return ys


def word_deriv_bounds(w: Word, S: GeneratorSet) -> tuple[float, float, float]:
    """Certified (inf, sup, lip) for the composite derivative.

    Folds letters outermost-last with
    Lip((g o f)') <= lip_g * sup_f^2 + sup_g * lip_f.
    """
    inf, sup, lip = 1.0, 1.0, 0.0
    for letter in reversed(w.letters):
        g_inf, g_sup, g_lip = letter_bounds(S[letter.gen], letter.sign)
        lip = g_lip * sup * sup + g_sup * lip
        inf *= g_inf
        sup *= g_sup
    return inf, sup, lip


@dataclass(frozen=True)
class SupEstimate:
    """Grid maximum plus a certified upper bound for the true sup."""

    grid_max: float
    certified_bound: float
    grid: GridSpec
    argmax_x: float = math.nan

    @classmethod
    def squeeze(cls, grid: GridSpec, ys: np.ndarray) -> "SupEstimate":
        """Sup |w(x) - x| of a monotone w from ``ys = w(grid.points())``,
        certified by monotonicity alone: on [x_i, x_{i+1}] the displacement
        is squeezed between the neighboring grid displacements shifted by
        tau, so the true sup never exceeds grid_max + tau."""
        xs = grid.points()
        disp = np.abs(ys - xs)
        k = int(np.argmax(disp))
        return cls(grid_max=float(disp[k]),
                   certified_bound=float(disp[k]) + grid.tau,
                   grid=grid, argmax_x=float(xs[k]))


def c0_dist_to_id(w: Word, grid: GridSpec, S: GeneratorSet) -> SupEstimate:
    """Sup displacement |w(x) - x|: ``SupEstimate.squeeze`` of w on the grid."""
    return SupEstimate.squeeze(grid, word_values(w, grid.points(), S))


def c1_dist_to_id(w: Word, grid: GridSpec, S: GeneratorSet) -> SupEstimate:
    """C^1 distance to the identity: sup|w - id| + sup|w' - 1|.

    The certified bound adds tau for the value part (monotone squeeze) and
    tau * Lip(w') for the derivative part.
    """
    for letter in w.letters:
        if not math.isfinite(S[letter.gen].der_lip):
            raise PreconditionError(f"generator {letter.gen!r} lacks a finite der_lip")
    xs = grid.points()
    ys, ds = xs, np.ones_like(xs)
    for *_, ys, dy in orbit(w, xs, S, derivs=True):
        ds *= dy
    disp = np.abs(ys - xs)
    gap = np.abs(ds - 1.0)
    grid_max = float(np.max(disp) + np.max(gap))
    lip = word_deriv_bounds(w, S)[2]
    return SupEstimate(grid_max=grid_max,
                       certified_bound=grid_max + grid.tau * (1.0 + lip),
                       grid=grid,
                       argmax_x=float(xs[int(np.argmax(disp + gap))]))


def check_c1_ball(S: GeneratorSet, epsilon: float) -> None:
    """Raise unless every generator is certified within ``epsilon`` of the
    identity in C^1 distance."""
    grid = GridSpec(4000)
    for g in S.generators:
        est = c1_dist_to_id(Word((Letter(g.id, 1),)), grid, S)
        if est.certified_bound > epsilon:
            raise PreconditionError(
                f"generator {g.id!r} is not within the {epsilon:g}-ball "
                f"(certified {est.certified_bound:g})")


# -- sphere orbits -------------------------------------------------------------

def budget_spent(time_budget_s):
    """A check that says whether ``time_budget_s`` seconds have passed since
    this call.  None never runs out; any number, 0 included, bounds the run."""
    if time_budget_s is None:
        return lambda: False
    deadline = time.monotonic() + time_budget_s
    return lambda: time.monotonic() >= deadline


def map_row_blocks(fn, rows: int, threads: int, width: int = 1) -> list:
    """Call ``fn(a, b)`` on consecutive row blocks ``a .. b`` of ``rows`` rows
    and return the results in block order.

    A block holds ``_PARALLEL_MIN // width`` rows of ``width`` elements, so
    no temporary of ``fn`` grows with ``rows``.  With ``threads > 1`` and
    more than one block, the blocks run on one thread pool.  Every row is
    computed alike in any block, so results do not depend on ``threads``.
    """
    step = max(1, _PARALLEL_MIN // width)
    blocks = [(a, min(a + step, rows)) for a in range(0, rows, step)]
    if threads < 2 or len(blocks) < 2:
        return [fn(a, b) for a, b in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda ab: fn(*ab), blocks))


def _fill_level(S: GeneratorSet, lev, prev, outs, start: int,
                derivs: bool, keep=None):
    """Write rows ``start .. start + len(outs[0])`` of sphere level ``lev``
    into ``outs``, reading the previous level's arrays ``prev``, and return
    the rows written.

    Both hold per start point the values, then, with ``derivs``, per start
    point the derivatives.  A row's value is its leading letter at its
    suffix row's value, clipped to [0, 1] in place as ``orbit`` clips
    arrays; its derivative is that letter's derivative there times the
    suffix row's, in ``apply_word``'s multiply order.  With ``derivs`` one
    ``letter_step`` gives both.  With ``keep``, a suffix slice ``src`` (its
    rows of ``prev``) of a letter g^sign evaluates only the rows where
    ``keep(g, sign, src)`` is true; the rows written then fill the front of
    ``outs`` in row order and come back as an array of their ids.  The
    kernels work element by element, so a kept row has the same bits.
    """
    stop = start + len(outs[0])
    k = len(prev) // (1 + derivs)
    done, kept = 0, []
    for s, letter in enumerate(S.alphabet):
        g, sign = S[letter.gen], letter.sign
        for rows, src in lev.suffix_slices(s):
            a, b = max(rows.start, start), min(rows.stop, stop)
            if a >= b:
                continue
            part = slice(src.start + a - rows.start, src.start + b - rows.start)
            xs = [p[part] for p in prev]
            if keep is not None:
                sel = np.flatnonzero(keep(g, sign, xs))
                xs = [x[sel] for x in xs]
                kept.append(sel + a)
            if not len(xs[0]):
                continue
            out = slice(done, done + len(xs[0]))
            done = out.stop
            for i in range(k):
                if derivs:
                    y, dy = letter_step(g, sign, xs[i])
                    np.multiply(dy, xs[k + i], out=outs[k + i][out])
                else:
                    y = letter_value(g, sign, xs[i])
                np.clip(y, 0.0, 1.0, out=outs[i][out])
    return range(start, stop) if keep is None else np.concatenate(kept)


def sphere_orbits(S: GeneratorSet, levels, starts, *, derivs: bool = False,
                  threads: int = 1, fold=None, keep=None):
    """Propagate start points through sphere levels 1, 2, ... lazily.

    For each level m it yields the whole level's arrays (row order of
    ``levels[m]``), filled by ``_fill_level`` block by block through
    ``map_row_blocks``: each word's value equals its ``word_values`` and its
    derivative its ``apply_word`` ``chain_product`` bitwise.  Level m + 1
    starts from the yielded arrays, so a caller that changes them in place
    propagates that.  With ``fold``, each row block goes to
    ``fold(m, rows, part)`` as soon as it is filled, ``rows`` being its row
    ids, and level m yields the per-block results in block order; the last
    level is then never stored: its blocks fill arrays of their own, and
    with ``keep`` they hold only the rows that ``_fill_level`` keeps.
    """
    prev = [np.array([float(x)]) for x in starts]
    prev += [np.ones(1) for _ in starts] if derivs else []
    for m, lev in enumerate(levels[1:], 1):
        last = fold is not None and m == len(levels) - 1
        outs = None if last else [np.empty(lev.size) for _ in prev]

        def block(a, b):
            part = ([np.empty(b - a) for _ in prev] if outs is None
                    else [o[a:b] for o in outs])
            rows = _fill_level(S, lev, prev, part, a, derivs, keep if last else None)
            return fold(m, rows, [p[:len(rows)] for p in part]) if fold else None

        found = map_row_blocks(block, lev.size, threads)
        prev = outs
        yield outs if fold is None else found


# -- ball probes ---------------------------------------------------------------

def _near_x0(g, sign, src, x0, t):
    """Suffix rows whose value y is not provably outside the window
    s^-1([x0 - t - p, x0 + t + p]), widened by p, of the letter s = g^sign;
    the ends come from s^-1, a side whose end leaves (0, 1) is not pruned,
    and NaN is kept.

    p = 2E, E bounding either letter's error: an inverse x passes the
    residual check |g(x) - y| <= ``INVERSE_TOL``, g(x) rounded by under
    1e-15, so x is off by at most that over der_inf; a forward letter by a
    few ulps.  So a row below the window has s(y) < x0 - t - p, and s's
    computed value, clipped or not, lies below x0 - t; above it likewise,
    with x0 + t < 1.  Either way the rounded |value - x0| is at least t.
    """
    p = 2.0 * (INVERSE_TOL + 1e-15) * letter_bounds(g, -1)[1]
    lo, hi = x0 - t - p, x0 + t + p
    lo = letter_value(g, -sign, lo) - p if lo > 0.0 else -math.inf
    hi = letter_value(g, -sign, hi) + p if hi < 1.0 else math.inf
    return ~((src[0] < lo) | (src[0] > hi))


def _gap_within(g, sign, src, x0, t):
    """Suffix rows whose derivative d is not provably outside the window
    that |d * s' - 1| < t needs, s' anywhere in (inf, sup) =
    ``letter_bounds(g, sign)``: neither d * sup * (1 + eta) < 1 - t - eta
    nor d * inf * (1 - eta) > 1 + t + eta, with eta = 1e-9.  NaN is kept.
    A computed letter derivative, and its product with d, are off by a few
    ulps relative, far inside eta, so a pruned row's rounded |d * s' - 1|
    is at least t.
    """
    inf, sup, _ = letter_bounds(g, sign)
    eta = 1e-9
    d = src[1]
    return ~((d * (sup * (1.0 + eta)) < 1.0 - t - eta)
             | (d * (inf * (1.0 - eta)) > 1.0 + t + eta))


#: The probed quantities: each kind's (derivatives needed, measure of one
#: ``sphere_orbits`` row block at base point x0, and the suffix rows that a
#: letter g^sign must still evaluate for the measure to come below t).  A
#: block, like the suffix rows ``src`` of ``keep(g, sign, src, x0, t)``,
#: holds the values, then, with derivatives, the derivatives.
PROBE_KINDS = {
    "displacement": (False, lambda part, x0: np.abs(part[0] - x0), _near_x0),
    "deriv_gap": (True, lambda part, x0: np.abs(part[1] - 1.0), _gap_within),
}

#: Words whose probe value falls at or below this act trivially at x0 for all
#: practical purposes (pure rounding residue of exact cancellations).
ZERO_TOL = 1e-13


@dataclass(frozen=True)
class ProbeMin:
    """One kind's literal minimum over a ball with its first argmin, the
    floor above ``ZERO_TOL`` (None if no word clears it) and the count of
    words at or below it; ``degenerate`` flags a minimum at that level."""

    value: float
    argmin: Word
    min_positive: float | None
    zero_words: int

    @property
    def degenerate(self) -> bool:
        return self.value <= ZERO_TOL


@dataclass(frozen=True)
class ProbeReport:
    """Minima of the ``PROBE_KINDS`` quantities over a ball of reduced words.

    Group elements supported away from x0 act trivially there, so the
    positive evidence is each ``ProbeMin``'s floor with its zero count.
    ``minima`` has each probed kind once a level has run; ``rows`` are
    ``(n, {kind: running minimum})``, non-increasing in n by construction.
    """

    x0: float
    n: int
    complete: bool
    minima: dict = field(default_factory=dict)
    rows: tuple = ()


class _MinTracker:
    """Running minimum with canonical (level, index) argmin.

    Values at or below ``ZERO_TOL`` count as trivially-acting words; the
    positive floor is the smallest value strictly above that noise level.
    """

    def __init__(self):
        self.value = math.inf
        self.where = None
        self.zero_count = 0
        self.min_positive = math.inf

    def update(self, vals: np.ndarray, n: int, rows=0):
        """Fold in level ``n``'s rows ``rows`` (their ids, or the first of
        consecutive ones); blocks of a level must come in row order, so ties
        keep the first row, and a block may hold no rows.  Only a block
        whose minimum is at or below ``ZERO_TOL``, or NaN, is scanned for
        such values; otherwise that minimum is the positive floor."""
        if not len(vals):
            return self
        k = int(np.argmin(vals))
        low = vals[k]
        if not low > ZERO_TOL:
            zero = vals <= ZERO_TOL
            self.zero_count += int(np.count_nonzero(zero))
            low = np.min(vals, where=~zero, initial=math.inf)
        self.min_positive = min(self.min_positive, float(low))
        if vals[k] < self.value:
            self.value = float(vals[k])
            self.where = (n, rows + k if isinstance(rows, int) else int(rows[k]))
        return self

    def merge(self, other: "_MinTracker"):
        """Fold in a tracker of later rows; ties keep the earlier row."""
        self.zero_count += other.zero_count
        self.min_positive = min(self.min_positive, other.min_positive)
        if other.value < self.value:
            self.value, self.where = other.value, other.where


def probe_ball(S: GeneratorSet, n: int, x0: float, *, kinds=tuple(PROBE_KINDS),
               cap: int = 4_000_000, threads: int = 1,
               time_budget_s: float | None = None) -> ProbeReport:
    """Exact minima of ``kinds`` over every nontrivial reduced word of
    length <= n.

    ``sphere_orbits`` hands each filled row block to a fold that takes
    minima of its own, merged here in block order, so the minima,
    first-occurrence argmins and counts do not depend on ``threads`` or the
    block size; the outermost level is never stored.  Derivatives are
    propagated only when a kind needs them.  Like the searches, the probe
    checks ``time_budget_s`` before each level; a probe stopped by it or by
    ``cap`` is not ``complete``.

    The outermost level evaluates only the rows that some kind's
    ``PROBE_KINDS`` row rule keeps at t, that kind's positive floor through
    the levels before (with t = inf every row is kept).  A pruned row's
    measure, as computed, is at least t for every kind: the rules leave
    margins of twice a letter kernel's error, which the inverse's residual
    check bounds by E = (``INVERSE_TOL`` + 1e-15) / der_inf, and eta = 1e-9
    on the relative rounding of derivatives, and rounding never takes a
    value below the float t.  Since t > ``ZERO_TOL`` and t is no less than
    the running minimum, which only a strictly smaller value moves, such a
    row changes no minimum, argmin (ties keep the earlier row), floor or
    zero count.
    """
    if not kinds or not set(kinds) <= PROBE_KINDS.keys():
        raise PreconditionError(f"probe kinds must be of {', '.join(PROBE_KINDS)}")
    if n < 1:
        raise PreconditionError("ball probe needs radius n >= 1")
    if "displacement" in kinds and not 0.0 < x0 < 1.0:
        raise PreconditionError("displacement probe needs x0 in (0, 1)")
    if not 0.0 <= x0 <= 1.0:
        raise DomainError("x0 outside [0, 1]")
    spent = budget_spent(time_budget_s)
    levels = sphere_levels(S, n, cap=cap)
    trackers = {k: _MinTracker() for k in kinds}

    def fold(m, rows, part):
        return {k: _MinTracker().update(PROBE_KINDS[k][1](part, x0), m, rows)
                for k in kinds}

    def keep(g, sign, src):
        # Called on the outermost level only, while the trackers hold the
        # levels before it.
        return reduce(np.logical_or, (
            PROBE_KINDS[k][2](g, sign, src, x0, t.min_positive)
            for k, t in trackers.items()))

    orbits = sphere_orbits(S, levels, [x0],
                           derivs=any(PROBE_KINDS[k][0] for k in kinds),
                           threads=threads, fold=fold, keep=keep)
    rows = []
    for m in range(1, len(levels)):
        if spent():
            break
        for found in next(orbits):
            for k, t in found.items():
                trackers[k].merge(t)
        rows.append((m, {k: t.value for k, t in trackers.items()}))
    minima = {k: ProbeMin(t.value, level_word(levels, *t.where, S),
                          None if math.isinf(t.min_positive) else t.min_positive,
                          t.zero_count)
              for k, t in trackers.items() if t.where is not None}
    return ProbeReport(x0=x0, n=n, complete=len(rows) == n, minima=minima,
                       rows=tuple(rows))
