"""Interval transport search: push a base interval through every reduced word
and look for one orbit point landing inside another word's interval.

Transporting an interval through one more letter rescales its length by at
least the letter's derivative infimum, so with all generators inside the
epsilon-ball each transition obeys |s(D_w)| >= (1 - 10 eps) |D_w|; the per
level sums of transported lengths then dominate ((1 - 10 eps) lambda)^n |D|
whenever the sphere count exceeds lambda^n.  An overlap pair (g1, g2) with
g2(x0) inside g1(D) pulls back to g1^-1 g2(x0) inside D itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..action import apply_word, check_c1_ball, sphere_orbits, word_values
from ..certify import Interval
from ..errors import DomainError
from ..generators import GeneratorSet
from ..words import Word, concat_reduce, invert, level_word, sphere_levels
from .pairs import pick_pair


@dataclass(frozen=True)
class TransportParams:
    x0: float
    delta_len: float
    epsilon: float
    lam: float
    n_max: int = 12
    word_cap: int = 4_000_000
    time_budget_s: float | None = None

    @property
    def delta(self) -> Interval:
        return Interval(self.x0, self.x0 + self.delta_len)


@dataclass(frozen=True)
class TransportRow:
    n: int
    sphere_words: int
    sum_lengths: float
    lower_bound: float
    bound_applicable: bool
    bound_ok: bool
    transition_violations: int


@dataclass
class TransportReport:
    status: str                       # found | not_found | time_budget | cap_exhausted
    x0: float
    delta: Interval
    epsilon: float
    lam: float
    rows: list[TransportRow] = field(default_factory=list)
    n_found: int | None = None
    g1: Word | None = None
    g2: Word | None = None
    g2_x0: float = math.nan
    delta_g1: Interval | None = None
    pullback: float = math.nan
    pullback_in_delta: bool = False
    distinctness: str = ""            # distinct_by_normal_form | separated_on_grid | ...
    separation: float = math.nan


def interval_transport_search(S: GeneratorSet, params: TransportParams,
                              nf=None) -> TransportReport:
    """Run the per-level transport sums and the overlap pair search.

    ``nf`` optionally maps a word to an exact group normal form; when given,
    pairs with distinct forms are preferred (within ``_find_overlap``'s
    anchor limit), and such a pair's distinctness is certified by the form.
    Otherwise distinctness falls back to grid separation.
    """
    delta = params.delta
    if not (0.0 < delta.lo and delta.hi < 1.0):
        raise DomainError("base interval must sit inside (0, 1)")
    check_c1_ball(S, params.epsilon)
    factor = max(1.0 - 10.0 * params.epsilon, 0.0)
    deadline = (time.monotonic() + params.time_budget_s
                if params.time_budget_s else None)

    report = TransportReport(status="not_found", x0=params.x0, delta=delta,
                             epsilon=params.epsilon, lam=params.lam)
    levels = sphere_levels(S, params.n_max, cap=params.word_cap)
    if len(levels) != params.n_max + 1:
        report.status = "cap_exhausted"

    lengths = np.array([delta.length])
    all_lo = [np.array([delta.lo])]
    all_hi = [np.array([delta.hi])]
    orbits = sphere_orbits(S, levels, [delta.lo, delta.hi])
    found = None
    for m in range(1, len(levels)):
        if deadline and time.monotonic() > deadline:
            report.status = "time_budget"
            break
        lev = levels[m]
        new_lo, new_hi = next(orbits)
        new_len = new_hi - new_lo
        violations = sum(
            int(np.count_nonzero(new_len[rows] < factor * lengths[src] - 1e-15))
            for rows, src in lev.suffix_slices())
        total = float(np.sum(new_len))
        bound = (factor * params.lam) ** m * delta.length
        applicable = lev.size >= params.lam ** m
        report.rows.append(TransportRow(
            n=m, sphere_words=lev.size, sum_lengths=total, lower_bound=bound,
            bound_applicable=applicable,
            bound_ok=(total > bound) or not applicable,
            transition_violations=violations))
        lengths = new_len
        if found is None:
            all_lo.append(new_lo)
            all_hi.append(new_hi)
            found = _find_overlap(all_lo, all_hi, nf, levels, S)
    if found is not None:
        j_lev, j_idx, i_lev, i_idx, certified = found
        g1 = level_word(levels, i_lev, i_idx, S)
        g2 = level_word(levels, j_lev, j_idx, S)
        report.status = "found"
        report.n_found = max(i_lev, j_lev)
        report.g1, report.g2 = g1, g2
        report.g2_x0 = float(all_lo[j_lev][j_idx])
        report.delta_g1 = Interval(float(all_lo[i_lev][i_idx]),
                                   float(all_hi[i_lev][i_idx]))
        pull = apply_word(concat_reduce(invert(g1), g2), params.x0, S).value
        report.pullback = pull
        report.pullback_in_delta = delta.lo - 1e-12 <= pull <= delta.hi + 1e-12
        if certified:
            report.distinctness = "distinct_by_normal_form"
        else:
            xs = np.linspace(0.0, 1.0, 513)
            sep = float(np.max(np.abs(word_values(g1, xs, S)
                                      - word_values(g2, xs, S))))
            report.separation = sep
            report.distinctness = ("separated_on_grid" if sep >= 1e-9
                                   else "possibly_equal_as_maps")
    return report


def _find_overlap(all_lo, all_hi, nf, levels, S):
    """Earliest canonical pair with point-in-interval overlap, as
    ``(j_lev, j_idx, i_lev, i_idx, certified)``.

    Candidate j supplies the point g_j(x0); candidate i supplies the
    interval.  Anchors are the covered points in canonical order; with a
    normal form, ``pick_pair`` stops 64 anchors in once a word-distinct
    fallback exists.
    """
    lo = np.concatenate(all_lo)
    hi = np.concatenate(all_hi)
    offsets = np.cumsum([0] + [len(a) for a in all_lo])
    cnt = (np.searchsorted(np.sort(lo), lo, side="right")
           - np.searchsorted(np.sort(hi), lo, side="left"))

    def locate(g_idx):
        lev = int(np.searchsorted(offsets, g_idx, side="right")) - 1
        return lev, int(g_idx - offsets[lev])

    def groups():
        for j in np.flatnonzero(cnt >= 2):
            cands = np.flatnonzero((lo <= lo[j]) & (hi >= lo[j]))
            yield j, cands[cands != j]

    form = nf and (lambda k: nf(level_word(levels, *locate(k), S)))
    pair = pick_pair(groups(), form, stop=64)
    return pair and (*locate(pair[0]), *locate(pair[1]), pair[2])
