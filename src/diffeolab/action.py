"""Applying words to points: orbit traces, certified distances, ball probes.

Words act suffix-first: for ``W = h_n ... h_1`` the letter ``h_1`` (rightmost
in the written form) is applied first.  The chain-rule product of the
per-letter derivatives along the orbit equals the derivative of the composite
at the start point.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .generators import (GeneratorSet, Letter, letter_bounds, letter_deriv,
                         letter_value)
from .words import Word, level_word, sphere_levels

#: Orbit points may leave [0, 1] by at most this much before it is an error.
CLAMP_TOL = 1e-12

_PARALLEL_MIN = 1 << 16


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


def orbit(w: Word, xs, S: GeneratorSet):
    """Apply ``w`` to a float or an array letter by letter, suffix first.

    Yields ``(g, sign, x, y)`` per letter: the letter's generator and sign,
    the points it acts on and its values ``y`` there, clipped to [0, 1].  A
    float that leaves [0, 1] by more than ``CLAMP_TOL`` raises; an array is
    clipped in place without a check.  ``y`` is the next letter's ``x``.
    """
    scalar = np.ndim(xs) == 0
    x = xs
    for letter in reversed(w.letters):
        g, sign = S[letter.gen], letter.sign
        y = letter_value(g, sign, x)
        if not scalar:
            np.clip(y, 0.0, 1.0, out=y)
        elif y < -CLAMP_TOL or y > 1.0 + CLAMP_TOL:
            raise DomainError(f"orbit left [0,1] by more than {CLAMP_TOL}")
        else:
            y = min(max(y, 0.0), 1.0)
        yield g, sign, x, y
        x = y


def apply_word(w: Word, x: float, S: GeneratorSet) -> OrbitTrace:
    """Apply ``w`` to ``x`` letter by letter, recording the full trace."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("point outside [0, 1]")
    x0 = float(x)
    pts = [x0]
    derivs = []
    for g, sign, x, y in orbit(w, x0, S):
        pts.append(y)
        derivs.append(letter_deriv(g, sign, x, y))
    return OrbitTrace(x0=x0, points=tuple(pts),
                      letter_derivs=tuple(derivs),
                      chain_product=math.prod(derivs, start=1.0))


def word_values(w: Word, xs: np.ndarray, S: GeneratorSet) -> np.ndarray:
    """Vectorized w(xs); points are clipped to [0,1] after each letter."""
    ys = np.array(xs, dtype=float)
    for *_, ys in orbit(w, ys, S):
        pass
    return ys


def word_values_derivs(w: Word, xs: np.ndarray, S: GeneratorSet):
    """Vectorized (w(xs), w'(xs)); derivative by sequential chain product."""
    ys = np.array(xs, dtype=float)
    ds = np.ones_like(ys)
    for g, sign, x, ys in orbit(w, ys, S):
        ds *= letter_deriv(g, sign, x, ys)
    return ys, ds


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
    ys, ds = word_values_derivs(w, xs, S)
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

def map_row_chunks(fn, xs: np.ndarray, outs, threads: int) -> None:
    """Write ``fn(xs[a:b])`` into ``outs[i][a:b]`` over row blocks of ``xs``.

    ``fn`` returns one array per output.  Inputs of at least ``_PARALLEL_MIN``
    elements are split along axis 0 into ``threads`` chunks on a thread pool,
    and each chunk runs in blocks of about ``_PARALLEL_MIN`` elements, so no
    temporary of ``fn`` grows with ``xs``.  Every row is computed alike in
    any block, so results do not depend on ``threads``.
    """
    chunks = threads if threads > 1 and xs.size >= _PARALLEL_MIN else 1
    bounds = np.linspace(0, len(xs), chunks + 1).astype(int)
    step = max(1, _PARALLEL_MIN // math.prod(xs.shape[1:]))

    def work(k):
        for a in range(bounds[k], bounds[k + 1], step):
            b = min(a + step, bounds[k + 1])
            for out, part in zip(outs, fn(xs[a:b])):
                out[a:b] = part

    if chunks == 1:
        work(0)
        return
    with ThreadPoolExecutor(max_workers=chunks) as pool:
        list(pool.map(work, range(chunks)))


def _fill_level(S: GeneratorSet, lev, prev, outs, start: int, derivs: bool,
                threads: int) -> None:
    """Write rows ``start .. start + len(outs[0])`` of sphere level ``lev``
    into ``outs``, reading the previous level's arrays ``prev``.

    Both hold per start point the values, then, with ``derivs``, per start
    point the derivatives.  A row's value is its leading letter at its
    suffix row's value, clipped to [0, 1] in place as ``orbit`` clips
    arrays; its derivative is that letter's derivative there times the
    suffix row's, in ``apply_word``'s multiply order.
    """
    stop = start + len(outs[0])
    k = len(prev) // (1 + derivs)
    for s, letter in enumerate(S.alphabet):
        g, sign = S[letter.gen], letter.sign

        def step(x):
            y = letter_value(g, sign, x)
            np.clip(y, 0.0, 1.0, out=y)
            return (y, letter_deriv(g, sign, x, y)) if derivs else (y,)

        for rows, src in lev.suffix_slices(s):
            a, b = max(rows.start, start), min(rows.stop, stop)
            if a >= b:
                continue
            part = slice(src.start + a - rows.start, src.start + b - rows.start)
            for i in range(k):
                out = [o[a - start:b - start] for o in outs[i::k]]
                map_row_chunks(step, prev[i][part], out, threads)
                if derivs:
                    out[1] *= prev[k + i][part]


def sphere_orbits(S: GeneratorSet, levels, starts, *, derivs: bool = False,
                  threads: int = 1):
    """Propagate start points through sphere levels 1, 2, ... lazily.

    For each level m it yields ``_fill_level``'s arrays of the whole level
    (row order of ``levels[m]``): each word's value equals its
    ``word_values`` and its derivative its ``apply_word`` ``chain_product``
    bitwise.  Level m + 1 starts from the yielded arrays, so a caller that
    changes them in place propagates that.
    """
    prev = [np.array([float(x)]) for x in starts]
    prev += [np.ones(1) for _ in starts] if derivs else []
    for lev in levels[1:]:
        outs = [np.empty(lev.size) for _ in prev]
        _fill_level(S, lev, prev, outs, 0, derivs, threads)
        prev = outs
        yield outs


# -- ball probes ---------------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    """Minimum displacement / derivative gap over a ball of reduced words.

    ``min_*`` are literal minima over all nontrivial words.  Because group
    elements supported away from x0 act trivially there, the strictly
    positive evidence lives in ``min_positive_*`` together with the count of
    words fixing x0 to within ``ZERO_TOL``; ``degenerate_*`` flags a minimum
    at the noise level.  Per-radius rows record the running minima, which
    are non-increasing in n by construction.
    """

    x0: float
    n: int
    complete: bool
    min_displacement: float | None = None
    argmin_displacement: Word | None = None
    min_positive_displacement: float | None = None
    zero_displacement_words: int = 0
    min_deriv_gap: float | None = None
    argmin_deriv_gap: Word | None = None
    min_positive_deriv_gap: float | None = None
    zero_deriv_gap_words: int = 0
    rows: tuple = ()

    @property
    def degenerate_displacement(self) -> bool:
        return (self.min_displacement is not None
                and self.min_displacement <= ZERO_TOL)

    @property
    def degenerate_deriv_gap(self) -> bool:
        return (self.min_deriv_gap is not None
                and self.min_deriv_gap <= ZERO_TOL)


#: Words whose probe value falls at or below this act trivially at x0 for all
#: practical purposes (pure rounding residue of exact cancellations).
ZERO_TOL = 1e-13


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

    def update(self, vals: np.ndarray, n: int, offset: int = 0):
        """Fold in level ``n``'s rows ``offset, offset + 1, ...``; blocks of a
        level must come in row order, so ties keep the first row."""
        zero = vals <= ZERO_TOL
        self.zero_count += int(np.count_nonzero(zero))
        self.min_positive = min(self.min_positive, float(
            np.min(vals, where=~zero, initial=math.inf)))
        k = int(np.argmin(vals))
        if vals[k] < self.value:
            self.value = float(vals[k])
            self.where = (n, offset + k)


def probe_ball(S: GeneratorSet, n: int, x0: float, *, displacement=True,
               deriv_gap=True, cap: int = 4_000_000, threads: int = 1) -> ProbeReport:
    """Exact minima over every nontrivial reduced word of length <= n.

    Evaluation walks sphere levels with ``_fill_level``; workers only split
    array chunks, so results are independent of ``threads``.  Each level
    below the outermost is kept whole only until the next is built from it.
    The outermost is never stored: it runs through one window of
    ``4 * threads * _PARALLEL_MIN`` rows at a time, each folded into the
    running minima and dropped.  The fold is elementwise and sees rows in
    order, so the minima, first-occurrence argmins and counts do not depend
    on the window.
    """
    if not (displacement or deriv_gap):
        raise PreconditionError("ball probe needs displacement or deriv_gap")
    if n < 1:
        raise PreconditionError("ball probe needs radius n >= 1")
    if displacement and not 0.0 < x0 < 1.0:
        raise PreconditionError("displacement probe needs x0 in (0, 1)")
    if not 0.0 <= x0 <= 1.0:
        raise DomainError("x0 outside [0, 1]")
    levels = sphere_levels(S, n, cap=cap)
    complete = len(levels) == n + 1
    top = len(levels) - 1
    prev = [np.array([float(x0)])] + ([np.ones(1)] if deriv_gap else [])
    disp_t, gap_t = _MinTracker(), _MinTracker()
    buf = np.empty(_PARALLEL_MIN)
    rows = []

    def track(tracker, arr, target, m, offset):
        # |arr - target| one block at a time, through the one buffer.
        for a in range(0, arr.size, _PARALLEL_MIN):
            part = arr[a:a + _PARALLEL_MIN]
            gap = np.subtract(part, target, out=buf[:part.size])
            tracker.update(np.abs(gap, out=gap), m, offset + a)

    for m in range(1, top + 1):
        size = levels[m].size
        # Four kernel blocks per thread: each block starts one thread pool.
        window = size if m < top else min(4 * threads * _PARALLEL_MIN, size)
        outs = [np.empty(window) for _ in prev]
        for a in range(0, size, window):
            part = [o[:min(window, size - a)] for o in outs]
            _fill_level(S, levels[m], prev, part, a, deriv_gap, threads)
            if displacement:
                track(disp_t, part[0], x0, m, a)
            if deriv_gap:
                track(gap_t, part[1], 1.0, m, a)
        prev = outs
        rows.append((m, disp_t.value if displacement else None,
                     gap_t.value if deriv_gap else None))

    def emit(track, on):
        if not on or track.where is None:
            return None, None, None, 0
        argmin = level_word(levels, track.where[0], track.where[1], S)
        pos = None if math.isinf(track.min_positive) else track.min_positive
        return track.value, argmin, pos, track.zero_count

    d_val, d_arg, d_pos, d_zero = emit(disp_t, displacement)
    g_val, g_arg, g_pos, g_zero = emit(gap_t, deriv_gap)
    return ProbeReport(x0=x0, n=n, complete=complete,
                       min_displacement=d_val, argmin_displacement=d_arg,
                       min_positive_displacement=d_pos,
                       zero_displacement_words=d_zero,
                       min_deriv_gap=g_val, argmin_deriv_gap=g_arg,
                       min_positive_deriv_gap=g_pos,
                       zero_deriv_gap_words=g_zero,
                       rows=tuple(rows))

