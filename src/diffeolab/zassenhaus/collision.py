"""Derivative collision search: bucket sphere words by value at a base point,
sub-bucket by log derivative, and pull back a colliding pair.

A pair in the same value bucket of width lambda^-n satisfies the closeness
condition star-1; a pair in the same log-derivative sub-bucket of width
log(1 + C1) has derivative ratio inside (1 - C1, 1 + C1), which is star-2.
Pulling g2(x0) back through g1^-1 multiplies derivative errors letter by
letter, each step bounded by 1 + M L^(k+1) / lambda^n where M bounds the
derivative Lipschitz constants of the letters and L = 1 + epsilon; the audit
re-checks every step of that chain and the final derivative of V = g1^-1 g2
must land inside (1 - C, 1 + C).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..action import apply_word, check_c1_ball, sphere_orbits
from ..errors import DomainError, PreconditionError
from ..generators import GeneratorSet
from ..words import Word, concat_reduce, invert, level_word, sphere_levels
from .pairs import pick_pair


def _bracket_n1(eta: float, c1: float, cap: int = 10_000_000) -> int | None:
    """Smallest n with 1 - C1 < (1 - eta^-n)^n and (1 + eta^-n)^n < 1 + C1,
    stable for all larger n (the log bounds decay once n exceeds 1/log eta).
    """
    start = max(int(math.ceil(1.0 / math.log(eta))), 1)
    n = start
    while n <= cap:
        t = eta ** float(-n)
        if t < 1.0:
            lo = n * math.log1p(-t)
            hi = n * math.log1p(t)
            if lo > math.log1p(-c1) and hi < math.log1p(c1):
                return n
        n += max(n // 8, 1)
    return None


@dataclass(frozen=True)
class CollisionParams:
    """Search constants; ``validate`` enforces the compatibility inequalities."""

    x0: float
    c: float
    lam: float
    epsilon: float
    c1: float | None = None
    lam1: float | None = None
    lam2: float | None = None
    eta: float | None = None
    n_max: int = 14
    word_cap: int = 4_000_000
    time_budget_s: float | None = None

    @property
    def big_l(self) -> float:
        return 1.0 + self.epsilon

    def resolved(self) -> "CollisionParams":
        """Fill derived defaults from (x0, c, lam, epsilon)."""
        c1 = self.c1
        if c1 is None:
            c1 = 0.9 * min(1.0 - math.sqrt(1.0 - self.c),
                           math.sqrt(1.0 + self.c) - 1.0)
        eta = self.eta
        if eta is None:
            eta = 0.5 * (1.0 + self.lam / (1.0 + self.epsilon))
        lam1 = self.lam1
        if lam1 is None:
            lam1 = 1.05 * self.lam * (1.0 + self.epsilon) / (1.0 - self.epsilon)
        lam2 = self.lam2 if self.lam2 is not None else 1.05 * lam1
        return replace(self, c1=c1, lam1=lam1, lam2=lam2, eta=eta)

    def validate(self) -> None:
        if not 0.0 < self.x0 < 1.0:
            raise PreconditionError("x0 must lie in (0, 1)")
        if not 0.0 < self.epsilon < 1.0:
            raise PreconditionError("epsilon must lie in (0, 1)")
        if not 0.0 < self.c < 1.0:
            raise PreconditionError("C must lie in (0, 1)")
        if None in (self.c1, self.lam1, self.lam2, self.eta):
            raise PreconditionError("parameters not resolved")
        if not 1.0 < self.eta < self.lam / (1.0 + self.epsilon):
            raise PreconditionError("need 1 < eta < lambda / (1 + epsilon)")
        if not ((1.0 + self.epsilon) / (1.0 - self.epsilon)
                < self.lam1 / self.lam):
            raise PreconditionError(
                "need (1+eps)/(1-eps) < lambda1 / lambda")
        if not 1.0 < self.lam < self.lam1 < self.lam2:
            raise PreconditionError("need 1 < lambda < lambda1 < lambda2")
        if not (1.0 - self.c < (1.0 - self.c1) ** 2
                and (1.0 + self.c1) ** 2 < 1.0 + self.c):
            raise PreconditionError(
                "need 1 - C < (1 - C1)^2 and (1 + C1)^2 < 1 + C")


@dataclass(frozen=True)
class CollisionRow:
    n: int
    sphere_words: int
    value_buckets: int
    max_bucket: int
    pair_found: bool


@dataclass
class CollisionReport:
    status: str                        # found | not_found | time_budget | cap_exhausted
    params: CollisionParams
    n1: int | None
    rows: list[CollisionRow] = field(default_factory=list)
    n_found: int | None = None
    j: int | None = None
    g1: Word | None = None
    g2: Word | None = None
    g1_x0: float = math.nan
    g2_x0: float = math.nan
    star1_gap: float = math.nan
    star1_bound: float = math.nan
    deriv_ratio: float = math.nan
    v: Word | None = None
    v_deriv: float = math.nan
    audit_steps: int = 0
    audit_violations: int = 0
    chain_rel_err: float = math.nan
    distinctness: str = ""


def _bucket_pair(vals, logds, width_v, width_d, nf_of_idx):
    """Earliest same-(value, derivative)-bucket pair, preferring distinct
    normal forms under ``nf_of_idx`` (index -> form); returns
    (i1, i2, certified) or None.  Buckets go in key order, rows of one
    bucket in index order, the first row being the anchor."""
    j = np.floor(vals / width_v)
    sub = np.floor(logds / width_d)
    order = np.lexsort((sub, j))
    jj, ss = j[order], sub[order]
    cut = np.flatnonzero((jj[1:] != jj[:-1]) | (ss[1:] != ss[:-1])) + 1
    starts, ends = np.r_[0, cut], np.r_[cut, len(order)]
    multi = ends - starts > 1
    groups = ((order[a], order[a + 1:b])
              for a, b in zip(starts[multi], ends[multi]))
    return pick_pair(groups, nf_of_idx)


def derivative_collision_search(S: GeneratorSet, params: CollisionParams,
                                nf=None) -> CollisionReport:
    """Level-by-level bucket search for a star-1/star-2 pair.

    Each level offers one pair, the canonical one of ``_bucket_pair``.  It is
    accepted when it passes star-1, star-2 and V'(x0) in (1 - C, 1 + C);
    otherwise the search moves on to the next level.  With a normal form
    available, pairs distinct as group elements are preferred and the report
    certifies distinctness through it.
    """
    params = params.resolved()
    params.validate()
    check_c1_ball(S, params.epsilon)
    n1 = _bracket_n1(params.eta, params.c1)
    report = CollisionReport(status="not_found", params=params, n1=n1)
    deadline = (time.monotonic() + params.time_budget_s
                if params.time_budget_s else None)
    levels = sphere_levels(S, params.n_max, cap=params.word_cap)
    if len(levels) != params.n_max + 1:
        report.status = "cap_exhausted"
    width_d = math.log1p(params.c1)
    big_m = S.lip_max

    logds = np.array([0.0])
    orbits = sphere_orbits(S, levels, [params.x0], derivs=True)
    for m in range(1, len(levels)):
        if deadline and time.monotonic() > deadline:
            report.status = "time_budget"
            break
        lev = levels[m]
        vals, logd = next(orbits)
        np.log(logd, out=logd)
        for s in range(1, len(S.alphabet), 2):  # inverse letters
            np.negative(logd[lev.rows(s)], out=logd[lev.rows(s)])
        for rows, src in lev.suffix_slices():
            np.add(logds[src], logd[rows], out=logd[rows])
        logds = logd
        width_v = params.lam ** float(-m)
        _, counts = np.unique(np.floor(vals / width_v), return_counts=True)
        pair = _bucket_pair(vals, logds, width_v, width_d,
                            nf and (lambda i: nf(level_word(levels, m, i, S))))
        accepted = False
        if pair is not None:
            i1, i2, certified = pair
            accepted = _verify_pair(report, S, levels, m, i1, i2, vals,
                                    certified, big_m)
        report.rows.append(CollisionRow(
            n=m, sphere_words=lev.size, value_buckets=len(counts),
            max_bucket=int(np.max(counts)), pair_found=accepted))
        if accepted:
            report.status = "found"
            break
    return report


def _verify_pair(report, S, levels, n, i1, i2, vals, certified, big_m) -> bool:
    params = report.params
    g1 = level_word(levels, n, i1, S)
    g2 = level_word(levels, n, i2, S)
    t1 = apply_word(g1, params.x0, S)
    t2 = apply_word(g2, params.x0, S)
    gap = abs(t1.value - t2.value)
    bound = params.lam ** float(-n)
    ratio = t1.chain_product / t2.chain_product
    if gap > bound or not (1.0 - params.c1 < ratio < 1.0 + params.c1):
        return False
    v = concat_reduce(invert(g1), g2)
    tv = apply_word(v, params.x0, S)
    if not (1.0 - params.c < tv.chain_product < 1.0 + params.c):
        return False

    # Termwise pull-back audit along W = g1^-1 from both orbit starts.
    w = invert(g1)
    ty = apply_word(w, t1.value, S)
    tz = apply_word(w, t2.value, S)
    steps = violations = 0
    big_l = params.big_l
    for k, (dy, dz) in enumerate(zip(ty.letter_derivs, tz.letter_derivs)):
        r = dy / dz
        err = big_m * big_l ** (k + 1) * bound
        steps += 1
        if not (1.0 - err <= r <= 1.0 + err):
            violations += 1
    # Chain identity: V'(x0) equals (g1^-1)'(g2(x0)) * g2'(x0).
    rhs = tz.chain_product * t2.chain_product
    rel = abs(tv.chain_product - rhs) / abs(rhs)

    report.n_found = n
    report.j = int(math.floor(t1.value / bound))
    report.g1, report.g2 = g1, g2
    report.g1_x0, report.g2_x0 = t1.value, t2.value
    report.star1_gap, report.star1_bound = gap, bound
    report.deriv_ratio = ratio
    report.v, report.v_deriv = v, tv.chain_product
    report.audit_steps, report.audit_violations = steps, violations
    report.chain_rel_err = rel
    report.distinctness = ("distinct_by_normal_form" if certified
                           else "word_distinct_only")
    return True
