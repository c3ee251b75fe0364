"""Flattening pipeline: drive a free pair toward a nontrivial word that is
certifiably close to the identity in sup distance.

Stages, in order:

1. Pick a grid of N subintervals with 1/N < epsilon and a derivative budget
   theta_N strictly below 2^(1/2N).
2. Scan for a zone width delta near the right endpoint on which every letter
   keeps its derivative inside (1/theta_N, theta_N).
3. Best-first search for an escape word W sending x_1 = 1/N into the zone
   (slightly deepened so the case maps below stay inside it).
4. Case analysis at z = W(x_1) yields words alpha, beta whose positive words
   never pull z0 back below z0, so the whole candidate family
   h = (U beta alpha) W maps every grid point into [z0, 1].
5. Enumerate candidates level by level (|U| = 1, 2, ...) into one store,
   bucket the value vectors (h(x_1), ..., h(x_{N-1})) at width base^-n and
   sort them by bucket key, ties by the raw value h(x_1).  Pull back the
   closest pair of rows adjacent in that order and in one bucket (not the
   closest pair of a bucket), and accept once the certified sup
   displacement of V = h1^-1 h2 drops below 2 epsilon.

The candidate search set is P_n = {U beta alpha : 1 <= |U| <= n}, so level n
holds exactly 2^(n+1) - 2 candidates; reports record this convention, the
audit columns (every candidate value at z0 and at z), and both the empirical
level reached and the astronomically larger level the a-priori pigeonhole
estimate would demand.
"""

from __future__ import annotations

import contextlib
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..action import (GridSpec, SupEstimate, apply_word, budget_spent,
                      map_row_blocks, orbit, word_values)
from ..certify import Interval, PingPongCertificate, scan_endpoint_delta
from ..errors import CapExhausted, DomainError, PreconditionError
from ..generators import GeneratorMap, GeneratorSet, Letter, letter_step, letter_value
from ..words import EMPTY, Word, concat_reduce, invert
from .pairs import sorted_runs

AUDIT_TOL = 1e-12


@dataclass(frozen=True)
class FlattenParams:
    """Caps and overrides for one flattening run."""

    epsilon: float
    n_max: int = 22
    candidate_cap: int = 1 << 21
    escape_cap: int = 1_000_000
    grid_n: int | None = None
    bucket_base: float | None = None
    time_budget_s: float | None = None


@dataclass(frozen=True)
class FlattenRow:
    n: int
    candidates: int
    buckets: int
    best_certified: float
    status: str


@dataclass
class FlattenReport:
    status: str                      # success | cap_exhausted | time_budget
    epsilon: float
    grid_n: int
    theta_n: float
    delta: float
    # None when the escape search stops at its cap (the stop is in notes).
    swapped: bool | None = None
    case: int | None = None
    alpha: Word | None = None
    beta: Word | None = None
    z0: float | None = None
    z: float | None = None
    w: Word | None = None
    m: int | None = None
    rows: list[FlattenRow] = field(default_factory=list)
    candidates_total: int = 0
    n_used: int | None = None
    g1: Word | None = None
    g2: Word | None = None
    v: Word | None = None
    c0: SupEstimate | None = None
    best_certified: float = math.inf
    best_v: Word | None = None
    # The four audit counts are None when the escape search stops at its cap.
    lemma1_violations: int | None = 0
    suffix_violations: int | None = 0
    lemma1_min_slack: float = math.inf
    theta_audit_checked: int | None = 0
    theta_audit_violations: int | None = 0
    theoretical_n: int | None = None
    notes: tuple[str, ...] = ()
    # W at grid.points(), where every C0 check and the theta audit start.
    w_grid: np.ndarray | None = field(default=None, repr=False, compare=False)


def find_escape_word(S: GeneratorSet, start: float, zone: Interval,
                     cap: int = 1_000_000) -> Word:
    """Best-first search for a reduced word sending ``start`` into ``zone``.

    Priority is the distance from the image point to the zone; ties break by
    word length and then insertion order, so the result is deterministic.
    Raises :class:`CapExhausted` (carrying the best point reached) when the
    expansion budget runs out.
    """
    if not 0.0 < start < 1.0:
        raise PreconditionError("start must lie in (0, 1)")
    if not (0.0 < zone.lo and zone.hi <= 1.0):
        raise PreconditionError("target zone must sit inside (0, 1]")

    def dist(p):
        return max(zone.lo - p, p - zone.hi, 0.0)

    if dist(start) == 0.0:
        return EMPTY
    letters = S.alphabet
    # nodes[i] = (letter index applied to reach node i, parent node)
    nodes = [(-1, -1)]
    points = [start]
    heap = [(dist(start), 0)]
    seen = {start}
    expansions = 0
    while heap:
        d, node = heapq.heappop(heap)
        if expansions >= cap:
            break
        expansions += 1
        last = nodes[node][0]
        p = points[node]
        for j, letter in enumerate(letters):
            if last >= 0 and j == (last ^ 1):
                continue
            q = float(letter_value(S[letter.gen], letter.sign, p))
            if q in seen:
                continue
            seen.add(q)
            nodes.append((j, node))
            points.append(q)
            dq = dist(q)
            if dq == 0.0:
                out = []
                k = len(nodes) - 1
                while k > 0:
                    out.append(letters[nodes[k][0]])
                    k = nodes[k][1]
                return Word(tuple(out))
            heapq.heappush(heap, (dq, len(nodes) - 1))
    raise CapExhausted("escape search cap exhausted",
                       best=min(points, key=dist))


@dataclass(frozen=True)
class CaseChoice:
    case: int
    alpha: Word
    beta: Word
    z0: float


def choose_case(f: GeneratorMap, g: GeneratorMap, z: float,
                sign: int = 1) -> CaseChoice:
    """Pick (alpha, beta, z0) with z0 <= alpha(z0) <= beta(alpha(z0)).

    Requires f^sign(z) >= z (the caller swaps the pair to its inverses when
    that fails).  Ties resolve toward the lowest-numbered case.
    """
    F = Word((Letter(f.id, sign),))
    G = Word((Letter(g.id, sign),))
    fz = letter_value(f, sign, z)
    if fz < z:
        raise PreconditionError("choose_case needs f(z) >= z; swap the pair")
    gfz = letter_value(g, sign, fz)
    if fz <= gfz:
        choice = CaseChoice(1, F, G, z)
    elif z <= gfz:
        choice = CaseChoice(2, concat_reduce(G, F), F, z)
    else:
        choice = CaseChoice(3, invert(concat_reduce(G, F)), invert(G), gfz)
    s2 = GeneratorSet([f, g])
    a_z0 = apply_word(choice.alpha, choice.z0, s2).value
    ba_z0 = apply_word(choice.beta, a_z0, s2).value
    if not (choice.z0 <= a_z0 + AUDIT_TOL and a_z0 <= ba_z0 + AUDIT_TOL):
        raise PreconditionError("case choice failed the monotone step check")
    return choice


def pigeonhole_bound(M: float, m: int, theta_n: float, N: int,
                     epsilon: float, cap: int = 10_000_000) -> int:
    """Smallest n >= 1 with M^(2m+4) * theta_N^n * 2^(-n/2N) < epsilon.

    In log space the condition is ``lhs + n*step < target``; the float test
    is monotone in n (step < 0), so the closed-form guess is corrected by
    stepping with that same test.  Fails when theta_N >= 2^(1/2N) since the
    left side then never decays below any positive epsilon, and raises
    ``CapExhausted`` when the answer exceeds ``cap`` (n = 1 never does).
    """
    if not (M >= 1.0 and m >= 0 and N >= 1 and epsilon > 0):
        raise DomainError("bad pigeonhole parameters")
    if theta_n >= 2.0 ** (1.0 / (2 * N)):
        raise PreconditionError("theta_N must be strictly below 2^(1/2N)")
    step = math.log(theta_n) - math.log(2.0) / (2 * N)
    if step >= 0.0:
        raise PreconditionError("theta_N must be strictly below 2^(1/2N)")
    lhs = (2 * m + 4) * math.log(M)
    target = math.log(epsilon)
    guess = (target - lhs) / step
    n = max(1, math.ceil(guess) if guess <= cap else cap + 1)
    while n > 1 and lhs + (n - 1) * step < target:
        n -= 1
    while n <= cap and lhs + n * step >= target:
        n += 1
    if n > max(cap, 1) or lhs + n * step >= target:
        raise CapExhausted("pigeonhole iteration cap exceeded", best=None)
    return n


def _candidate_word(idx: int, alpha: Word, beta: Word) -> Word:
    """Candidate word U beta alpha for candidate row ``idx``.

    Level n holds rows 2^n - 2 ... 2^(n+1) - 3, so idx + 2 has n bits below
    its leading one; they spell U from the left, 1 for beta.  Appending the
    bits 1, 0 spells the trailing beta alpha.
    """
    out = EMPTY
    for bit in bin(idx + 2)[3:] + "10":
        out = concat_reduce(out, beta if bit == "1" else alpha)
    return out


def flatten(f: GeneratorMap, g: GeneratorMap, cert: PingPongCertificate,
            epsilon: float, params: FlattenParams | None = None,
            threads: int = 1) -> FlattenReport:
    """Run the full pipeline on a certified free pair.

    Returns a report whose status is ``success`` once some pulled-back pair
    has certified sup displacement below ``2 * epsilon``; hitting the level or
    candidate caps yields ``cap_exhausted`` with the best word found so far,
    and hitting the escape cap yields it with no word, the stop reason and
    the best point reached in ``notes``.

    An accepted v = W^-1 g1^-1 g2 W is not the identity by construction, with
    no point scanned: g1 != g2 are sequences over alpha and beta, positive
    words in one sign of the ping-pong pair with distinct first letters (a
    prefix code), so they are distinct elements of a free semigroup.
    """
    if not cert.valid:
        raise PreconditionError("ping-pong certificate is invalid")
    if {cert.f_id, cert.g_id} != {f.id, g.id}:
        raise PreconditionError("certificate does not match the pair")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    params = params or FlattenParams(epsilon)
    if params.epsilon != epsilon:
        raise PreconditionError("epsilon differs from params.epsilon")
    S = GeneratorSet([f, g])
    N = math.ceil(1.0 / epsilon) + 1 if params.grid_n is None else params.grid_n
    if not (N > 0 and 1.0 / N < epsilon):
        raise PreconditionError("grid too coarse: need N > 0 and 1/N < epsilon")
    theta_n = 0.5 * (1.0 + 2.0 ** (1.0 / (2 * N)))
    # Level n runs if n <= n_max and, past level 1, 2^(n+1) - 2 <= cap.
    n_last = max(0, min(params.n_max,
                        (max(params.candidate_cap, 2) + 2).bit_length() - 2))
    bucket_base = (2.0 ** (1.0 / (2 * N)) if params.bucket_base is None
                   else params.bucket_base)
    if not (bucket_base > 1.0
            and bucket_base ** float(-n_last) >= np.finfo(float).tiny):
        raise PreconditionError("bucket_base must exceed 1 with normal widths")
    delta = scan_endpoint_delta(S, side=1, theta=theta_n)
    spent = budget_spent(params.time_budget_s)

    # Deepened zone: the case maps move points by at most theta_n^4 in zone.
    zone = Interval(1.0 - delta * theta_n ** -4, 1.0)
    try:
        W = find_escape_word(S, 1.0 / N, zone, cap=params.escape_cap)
    except CapExhausted as exc:
        return FlattenReport(
            status="cap_exhausted", epsilon=epsilon, grid_n=N, theta_n=theta_n,
            delta=delta, lemma1_violations=None, suffix_violations=None,
            theta_audit_checked=None, theta_audit_violations=None,
            notes=(f"stopped: {exc}", f"best escape point {exc.best:.17g}"))

    grid = GridSpec(N)
    xs = grid.points()
    w_grid = word_values(W, xs, S)
    y = w_grid[1:-1]
    z = float(y[0])
    sign = 1 if f.value(z) >= z else -1
    choice = choose_case(f, g, z, sign)
    alpha, beta, z0 = choice.alpha, choice.beta, choice.z0

    base = word_values(concat_reduce(beta, alpha),
                       np.concatenate([y, [z0, z]]), S)
    n_grid = len(y)

    report = FlattenReport(
        status="cap_exhausted", epsilon=epsilon, grid_n=N, theta_n=theta_n,
        delta=delta, swapped=sign < 0, case=choice.case, alpha=alpha,
        beta=beta, z0=z0, z=z, w=W, m=len(W), w_grid=w_grid,
        notes=("candidates enumerate P_n = {U beta alpha : 1 <= |U| <= n}",
               "theoretical level uses the doubled derivative-sum constant"),
    )
    with contextlib.suppress(CapExhausted):     # then it stays None
        report.theoretical_n = pigeonhole_bound(S.m_double, len(W), theta_n,
                                                N, epsilon)

    store = np.empty((0, len(base)))
    prev = base.reshape(1, -1)
    for n in range(1, n_last + 1):
        if spent():
            report.status = "time_budget"
            break
        lo, mid, hi = 2 ** n - 2, 2 ** n - 2 + len(prev), 2 ** (n + 1) - 2
        grown = np.empty((hi, len(base)))   # rows are reserved level by level
        grown[:lo] = store
        store = grown

        def grow(a, b):
            store[lo + a:lo + b] = word_values(alpha, prev[a:b], S)
            store[mid + a:mid + b] = word_values(beta, prev[a:b], S)

        map_row_blocks(grow, len(prev), threads, prev.shape[1])
        prev = store[lo:hi]
        report.candidates_total = hi
        buckets, pair = _closest_same_bucket(
            store[:hi, :n_grid], bucket_base ** float(-n), threads)
        level_status = "open"
        if pair is not None:
            g1, g2 = (_candidate_word(i, alpha, beta) for i in pair)
            h1 = concat_reduce(g1, W)
            h2 = concat_reduce(g2, W)
            v = concat_reduce(invert(h1), h2)
            est = SupEstimate.squeeze(grid, _values_past(v, W, w_grid, xs, S))
            if est.certified_bound < report.best_certified:
                report.best_certified = est.certified_bound
                report.best_v = v
            if est.certified_bound < 2.0 * epsilon and v:
                report.status = "success"
                report.n_used = n
                report.g1, report.g2, report.v, report.c0 = g1, g2, v, est
                level_status = "accepted"
            else:
                level_status = "rejected"
        report.rows.append(FlattenRow(
            n=n, candidates=report.candidates_total, buckets=buckets,
            best_certified=report.best_certified, status=level_status))
        if report.status == "success":
            break

    # Candidate audits: value at z0 (never below z0) and at z.
    at_z0, at_z = store[:report.candidates_total, n_grid:].T
    report.lemma1_min_slack = float(np.min(at_z0 - z0, initial=math.inf))
    report.lemma1_violations = int(np.count_nonzero(at_z0 < z0 - AUDIT_TOL))
    report.suffix_violations = int(np.count_nonzero(at_z < z - AUDIT_TOL))
    if report.status == "success":
        _final_audits(report, S, grid, delta, theta_n)
    return report


def _values_past(word, w, w_xs, xs, S):
    """``word(xs)`` given ``w_xs = w(xs)``: a word that ends in ``w`` applies
    only its other letters to ``w_xs``, bitwise ``word_values(word, xs, S)``
    as ``orbit`` goes suffix first; any other is evaluated whole."""
    k = len(word) - len(w)
    if k >= 0 and word.letters[k:] == w.letters:
        return word_values(Word(word.letters[:k]), w_xs, S)
    return word_values(word, xs, S)


def _closest_same_bucket(rows, width, threads=1):
    """(bucket count, closest adjacent same-bucket pair or None) of ``rows``.

    Rows are keyed by ``floor(row / width)``, one column at a time, and
    ``sorted_runs`` sorts them by key, ties by the raw first value.  Only
    the key columns that vary are kept: a constant one cannot change the
    stable sort or the same-bucket mask (a NaN never equals itself, so a
    column with one is kept), and with none left the sort is the tie sort.
    The pair is the first adjacent same-bucket pair of least L-inf distance,
    as sorted row indices; only those pairs are measured, block by block.
    """
    keys = []
    for c in range(rows.shape[1]):
        key = np.divide(rows[:, c], width)
        np.floor(key, out=key)
        if not np.all(key == key[:1]):
            keys.append(key)
    order, same = sorted_runs(keys, tie=(rows[:, 0],))
    del keys                             # free before the distance blocks
    ks = np.flatnonzero(same)            # sorted rows k, k + 1 share a bucket
    if not len(ks):
        return len(rows), None

    def closest(a, b):
        linf = np.max(np.abs(rows[order[ks[a:b] + 1]] - rows[order[ks[a:b]]]),
                      axis=1)
        i = int(np.argmin(linf))
        return linf[i], a + i

    _, j = min(map_row_blocks(closest, len(ks), threads, rows.shape[1]),
               key=lambda best: best[0])
    pair = order[ks[j]], order[ks[j] + 1]
    return len(rows) - len(ks), tuple(sorted(map(int, pair)))


def _final_audits(report: FlattenReport, S: GeneratorSet, grid: GridSpec,
                  delta: float, theta_n: float) -> None:
    # Pull-back letter control: wherever the traced point sits in the zone,
    # the letter derivative must stay inside (1/theta_N, theta_N).
    h1_inv = invert(concat_reduce(report.g1, report.w))
    pts = _values_past(concat_reduce(report.g2, report.w), report.w,
                       report.w_grid[1:-1], grid.interior_points(), S)
    lo = 1.0 - delta
    checked = violations = 0
    for gmap, sign, x, *_ in orbit(h1_inv, pts, S):
        in_zone = x >= lo
        if np.any(in_zone):
            ds = letter_step(gmap, sign, x[in_zone])[1]
            checked += len(ds)
            violations += int(np.count_nonzero(
                (ds <= 1.0 / theta_n) | (ds >= theta_n)))
    report.theta_audit_checked = checked
    report.theta_audit_violations = violations

    # Suffix audit at z for both accepted candidates, letter by letter.
    for cand in (report.g1, report.g2):
        trace = apply_word(cand, report.z, S)
        report.suffix_violations += sum(
            1 for p in trace.points[1:] if p < report.z - AUDIT_TOL)
