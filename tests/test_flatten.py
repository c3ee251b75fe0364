"""Flattening pipeline: escape search, case analysis, pigeonhole iteration,
and the end-to-end run on the reference pair."""

import copy
import importlib
import itertools
import math

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.action import GridSpec, apply_word, c0_dist_to_id, orbit, word_values
from diffeolab.certify import Interval
from diffeolab.generators import SCALAR_INVERSE_MAX, build_pp, letter_deriv, mobius
from diffeolab.zassenhaus import (FlattenParams, choose_case, find_escape_word,
                                  flatten, pigeonhole_bound)
from diffeolab.words import EMPTY, concat_reduce, invert, word_from_text
from diffeolab.zassenhaus.flatten import _candidate_word, _closest_same_bucket, \
    _final_audits, _values_past

PP = build_pp()
F, G = PP.generators
CERT = dl.check_pingpong(F, G, dl.Interval(*dl.PP_I), dl.Interval(*dl.PP_J))


def test_escape_trivial_when_inside():
    assert find_escape_word(PP, 0.95, Interval(0.9, 1.0)).letters == ()


def test_escape_reaches_zone():
    w = find_escape_word(PP, 0.1, Interval(0.9, 1.0))
    assert len(w) >= 1
    assert 0.9 <= dl.apply_word(w, 0.1, PP).value <= 1.0


def test_escape_cap_exhausted():
    with pytest.raises(dl.CapExhausted) as exc:
        find_escape_word(PP, 0.5, Interval(0.999999, 1.0), cap=3)
    assert 0.0 < exc.value.best < 0.999999


def test_choose_case_one():
    # f(z) <= g(f(z)): keep (f, g) as they are
    f, g = mobius("f", 2.0), mobius("g", 1.5)
    c = choose_case(f, g, 0.5)
    assert c.case == 1
    assert c.alpha.text == "f" and c.beta.text == "g" and c.z0 == 0.5


def test_choose_case_two():
    # g pulls f(z) back below f(z) but not below z
    f, g = mobius("f", 2.0), mobius("g", 0.9)
    c = choose_case(f, g, 0.5)
    assert c.case == 2
    assert c.alpha.text == "g f" and c.beta.text == "f" and c.z0 == 0.5


def test_choose_case_three():
    # g f pushes z strictly down: invert the composition
    f, g = mobius("f", 2.0), mobius("g", 0.25)
    c = choose_case(f, g, 0.5)
    assert c.case == 3
    assert c.alpha.text == "f^-1 g^-1" and c.beta.text == "g^-1"
    assert c.z0 == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_choose_case_needs_upward_f():
    f, g = mobius("f", 0.5), mobius("g", 2.0)
    with pytest.raises(dl.PreconditionError):
        choose_case(f, g, 0.5)
    c = choose_case(f, g, 0.5, sign=-1)
    assert c.case in (1, 2, 3)


def test_pigeonhole_bound_iteration():
    assert pigeonhole_bound(2.0, 3, 1.01, 5, 0.1) == 156


def test_pigeonhole_bound_trivial():
    # epsilon above M^(2m+4) is satisfied at the first level
    assert pigeonhole_bound(2.0, 3, 1.01, 5, 2000.0) == 1


def test_pigeonhole_bound_no_decay():
    with pytest.raises(dl.PreconditionError):
        pigeonhole_bound(2.0, 3, 2.0 ** (1.0 / 10.0), 5, 0.1)


def counting_loop_bound(M, m, theta_n, N, epsilon, cap):
    """Reference: count n up from 1 with the same float test; None past cap."""
    step = math.log(theta_n) - math.log(2.0) / (2 * N)
    lhs = (2 * m + 4) * math.log(M)
    target = math.log(epsilon)
    n = 1
    while lhs + n * step >= target:
        n += 1
        if n > cap:
            return None
    return n


def closed_form_bound(*args, cap):
    try:
        return pigeonhole_bound(*args, cap=cap)
    except dl.CapExhausted:
        return None


def test_pigeonhole_bound_matches_the_counting_loop():
    # The flatten runs on pp: escape words of 116, 212 and 405 letters at
    # epsilon 0.2, 0.1 and 0.05, with flatten's own N and theta_N.
    for eps, m in ((0.2, 116), (0.1, 212), (0.05, 405)):
        N = math.ceil(1.0 / eps) + 1
        args = (PP.m_double, m, 0.5 * (1.0 + 2.0 ** (1.0 / (2 * N))), N, eps)
        assert pigeonhole_bound(*args) == counting_loop_bound(*args, cap=10**7)
    rng = np.random.default_rng(17)
    for _ in range(300):
        N = int(rng.integers(1, 12))
        top = 2.0 ** (1.0 / (2 * N))
        args = (float(rng.uniform(1.0, 3.0)), int(rng.integers(0, 6)),
                float(rng.uniform(1.0, top)), N, float(10 ** rng.uniform(-3, 4)))
        assert closed_form_bound(*args, cap=20_000) == counting_loop_bound(*args, cap=20_000)


def test_pigeonhole_bound_cap_is_the_largest_answer():
    args = (2.0, 3, 1.01, 5, 0.1)
    assert pigeonhole_bound(*args, cap=156) == 156
    with pytest.raises(dl.CapExhausted):
        pigeonhole_bound(*args, cap=155)
    # n = 1 is returned whatever the cap, as the counting loop did.
    assert pigeonhole_bound(2.0, 3, 1.01, 5, 2000.0, cap=0) == 1
    with pytest.raises(dl.CapExhausted):
        pigeonhole_bound(*args, cap=0)


def test_bucket_scan_finds_a_pair_split_by_the_first_value():
    # A and C share a bucket; B shares only their first key and sorts
    # between them by its raw first value.
    rows = np.array([[0.10, 0.10], [0.11, 0.90], [0.12, 0.11]])
    assert _closest_same_bucket(rows, 0.5) == (2, (0, 2))
    assert _closest_same_bucket(rows[:2], 0.5) == (2, None)


def test_bucket_keys_past_int64_stay_distinct():
    # floor(x / width) reaches 5e23 here, past 2^63: distinct rows keep
    # distinct keys instead of sharing one overflowed integer key.
    rows = np.array([[0.5, 0.5], [0.6, 0.6], [0.7, 0.1]])
    assert _closest_same_bucket(rows, 1e-24) == (3, None)


def test_flatten_fine_buckets_separate_every_candidate():
    # Base 1e6 makes level n's width 1e-6n, so from level 4 on the keys pass
    # 2^63; every candidate keeps a bucket of its own up to the level cap.
    rep = flatten(F, G, CERT, 0.5, FlattenParams(0.5, n_max=12, bucket_base=1e6))
    assert [row.n for row in rep.rows] == list(range(1, 13))
    assert all(row.buckets == row.candidates for row in rep.rows)
    assert rep.status == "cap_exhausted"


@pytest.mark.parametrize("alpha, beta", [("f", "g"), ("g f", "f"),
                                         ("f^-1 g^-1", "g^-1"),
                                         ("g", "g^-1 f")])
def test_candidate_word_matches_level_order(alpha, beta):
    # Level n lists U over (alpha, beta)^n in product order, then beta alpha.
    alpha, beta = word_from_text(alpha, PP), word_from_text(beta, PP)
    idx = 0
    for n in range(1, 13):
        for syms in itertools.product((alpha, beta), repeat=n):
            want = EMPTY
            for s in syms + (beta, alpha):
                want = concat_reduce(want, s)
            assert _candidate_word(idx, alpha, beta) == want
            idx += 1


def test_flatten_invalid_certificate_rejected():
    from diffeolab.generators import spline
    f2 = spline("g", [(0.0, 0.0), (0.1, 0.251), (0.9, 0.349), (1.0, 1.0)])
    bad = dl.check_pingpong(F, f2, dl.Interval(*dl.PP_I), dl.Interval(*dl.PP_J))
    assert not bad.valid
    with pytest.raises(dl.PreconditionError):
        flatten(F, f2, bad, 0.5)


def test_flatten_reference_run():
    rep = flatten(F, G, CERT, 0.5)
    assert rep.status == "success"
    assert rep.v is not None and len(rep.v) > 0
    assert rep.c0.certified_bound < 1.0
    assert rep.g1.text != rep.g2.text
    # enumerated candidate counts follow 2^(n+1) - 2
    for row in rep.rows:
        assert row.candidates == 2 ** (row.n + 1) - 2
    # audit columns are clean
    assert rep.lemma1_violations == 0
    assert rep.suffix_violations == 0
    assert rep.theta_audit_violations == 0
    assert rep.lemma1_min_slack >= -1e-12
    assert rep.theoretical_n is not None and rep.theoretical_n > rep.n_used
    assert rep.nontrivial_point is not None and rep.nontrivial_point[1] > 0


def test_flatten_accepted_word_verified_densely():
    rep = flatten(F, G, CERT, 0.5)
    xs = np.linspace(0.0, 1.0, 100_001)
    dense = float(np.max(np.abs(word_values(rep.v, xs, PP) - xs)))
    assert dense <= rep.c0.certified_bound
    assert dense < 1.0


def test_flatten_cap_exhausted_on_tiny_level_budget():
    rep = flatten(F, G, CERT, 0.2, FlattenParams(0.2, n_max=1))
    assert rep.status == "cap_exhausted"
    assert rep.best_v is not None
    assert rep.best_certified >= 0.4


def test_flatten_best_certified_monotone():
    rep = flatten(F, G, CERT, 0.2)
    best = [row.best_certified for row in rep.rows]
    assert best == sorted(best, reverse=True)


def test_theta_audit_counts_match_pointwise_traces():
    rep = flatten(F, G, CERT, 0.2)
    grid = GridSpec(rep.grid_n)
    h1_inv = invert(concat_reduce(rep.g1, rep.w))
    h2 = concat_reduce(rep.g2, rep.w)
    lo = 1.0 - rep.delta
    zone_derivs = []
    for x in grid.interior_points():
        tr = apply_word(h1_inv, apply_word(h2, float(x), PP).value, PP)
        zone_derivs += [d for p, d in zip(tr.points, tr.letter_derivs) if p >= lo]
    # A theta tight enough that about half the in-zone letters trip it.
    theta = math.exp(float(np.median(np.abs(np.log(zone_derivs)))))
    expected = sum(1 for d in zone_derivs if not 1.0 / theta < d < theta)
    audited = copy.copy(rep)
    _final_audits(audited, PP, grid, rep.delta, theta)
    assert 0 < expected < len(zone_derivs)
    assert audited.theta_audit_checked == len(zone_derivs)
    assert audited.theta_audit_violations == expected


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _zone_derivs(rep, grid):
    """In-zone letter derivatives of the theta audit, with W applied whole."""
    pts = word_values(concat_reduce(rep.g2, rep.w), grid.interior_points(), PP)
    out = []
    for gmap, sign, x, y in orbit(invert(concat_reduce(rep.g1, rep.w)), pts, PP):
        zone = x >= 1.0 - rep.delta
        out.extend(letter_deriv(gmap, sign, x[zone], y[zone]).tolist())
    return out


@pytest.mark.parametrize("grid_n", [None, SCALAR_INVERSE_MAX])
def test_cached_w_grid_gives_the_uncached_report_bitwise(monkeypatch, grid_n):
    # The default grid (N + 1 = 7) takes the scalar inverse; N = 32 puts the
    # N + 1 grid points on the array route and the N - 1 interior ones on the
    # scalar route, so W's cached values come from a different route than a
    # fresh W on the interior would.
    calls = []

    def spy(word, w, w_xs, xs, S):
        out = _values_past(word, w, w_xs, xs, S)
        calls.append((word, xs.size))
        assert _bits(out) == _bits(word_values(word, xs, S))
        return out

    monkeypatch.setattr(importlib.import_module("diffeolab.zassenhaus.flatten"),
                        "_values_past", spy)
    rep = flatten(F, G, CERT, 0.2, FlattenParams(0.2, grid_n=grid_n))
    assert rep.status == "success"
    grid = GridSpec(rep.grid_n)
    assert (rep.grid_n + 1 > SCALAR_INVERSE_MAX) == (grid_n is not None)
    assert _bits(rep.w_grid) == _bits(word_values(rep.w, grid.points(), PP))
    assert _bits(rep.z) == _bits(word_values(rep.w, grid.interior_points(), PP)[0])

    # One C0 check per level with a pair, then the theta audit's g2 W.
    level_vs = [w for w, size in calls if size == rep.grid_n + 1]
    assert [size for _, size in calls] == [rep.grid_n + 1] * len(level_vs) + [rep.grid_n - 1]
    assert len(level_vs) == sum(row.status != "open" for row in rep.rows) >= 1
    best, vs = math.inf, iter(level_vs)
    for row in rep.rows:
        if row.status != "open":
            best = min(best, c0_dist_to_id(next(vs), grid, PP).certified_bound)
        assert _bits(row.best_certified) == _bits(best)
    assert level_vs[-1] == rep.v
    assert rep.c0 == c0_dist_to_id(rep.v, grid, PP)

    xs = np.linspace(0.0, 1.0, 10_001)
    disp = np.abs(word_values(rep.v, xs, PP) - xs)
    k = int(np.argmax(disp))
    assert rep.nontrivial_point == (float(xs[k]), float(disp[k]))

    # Theta audit counts at the run's theta_N and at one that about half of
    # the in-zone letters trip.
    derivs = _zone_derivs(rep, grid)

    def violations(theta):
        return sum(1 for d in derivs if not 1.0 / theta < d < theta)

    assert rep.theta_audit_checked == len(derivs) > 0
    assert rep.theta_audit_violations == violations(rep.theta_n)
    tight = math.exp(float(np.median(np.abs(np.log(derivs)))))
    audited = copy.copy(rep)
    _final_audits(audited, PP, grid, rep.delta, tight)
    assert audited.theta_audit_checked == len(derivs)
    assert audited.theta_audit_violations == violations(tight) > 0


@pytest.mark.parametrize("size", [7, 2 * SCALAR_INVERSE_MAX + 1])
def test_values_past_falls_back_when_the_word_cancels_into_w(size):
    xs = np.linspace(0.0, 1.0, size)
    w = word_from_text("f^-1 f^-1 f^-1 g", PP)
    w_xs = word_values(w, xs, PP)
    junk = np.full_like(xs, np.nan)
    # A leading letter inverse to W's first cancels into W at the junction.
    cancelled = concat_reduce(word_from_text("g f", PP), w)
    assert cancelled.text == "g f^-1 f^-1 g"
    for word in (cancelled, word_from_text("f^-1 g", PP), invert(w)):
        # The cached values are never read: NaN in their place changes nothing.
        assert _bits(_values_past(word, w, junk, xs, PP)) == _bits(word_values(word, xs, PP))
    # A word that keeps W whole starts from the cached values.
    kept = concat_reduce(word_from_text("g^-1 f^-1", PP), w)
    assert kept.letters[-len(w):] == w.letters
    assert _bits(_values_past(kept, w, w_xs, xs, PP)) == _bits(word_values(kept, xs, PP))
    head = word_from_text("g^-1 f^-1", PP)
    assert _bits(_values_past(kept, w, xs, xs, PP)) == _bits(word_values(head, xs, PP))
    assert _bits(_values_past(w, w, w_xs, xs, PP)) == _bits(w_xs)
    assert _bits(_values_past(w, EMPTY, xs, xs, PP)) == _bits(w_xs)


def test_flatten_applies_w_to_its_small_grid_once(monkeypatch):
    # Every array letter goes through action.letter_value; log the ones on
    # at most N + 1 points.
    log = []
    value = dl.action.letter_value

    def spy(g, sign, x):
        if np.ndim(x):
            log.append((g.id, sign, np.array(x)))
        return value(g, sign, x)

    monkeypatch.setattr(dl.action, "letter_value", spy)
    rep = flatten(F, G, CERT, 0.2)
    monkeypatch.undo()
    grid = GridSpec(rep.grid_n)
    small = [(gid, sign, x) for gid, sign, x in log if x.size <= rep.grid_n + 1]
    first = rep.w.letters[-1]
    meets = [x for gid, sign, x in small if (gid, sign) == first
             and any(np.array_equal(x, p) for p in (grid.points(), grid.interior_points()))]
    assert len(meets) == 1 and np.array_equal(meets[0], grid.points())
    # Two more passes of W over even the interior would cost more than this.
    w_inverse = sum(1 for letter in rep.w.letters if letter.sign < 0)
    assert w_inverse > len(rep.w) // 2
    inverse_points = sum(x.size for _, sign, x in small if sign < 0)
    assert w_inverse * (rep.grid_n + 1) <= inverse_points < 2 * w_inverse * (rep.grid_n - 1)
