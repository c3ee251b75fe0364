"""Flattening pipeline: escape search, case analysis, pigeonhole iteration,
and the end-to-end run on the reference pair."""

import copy
import itertools
import math

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.action import GridSpec, apply_word, word_values
from diffeolab.certify import Interval
from diffeolab.generators import build_pp, mobius
from diffeolab.zassenhaus import (FlattenParams, choose_case, find_escape_word,
                                  flatten, pigeonhole_bound)
from diffeolab.words import EMPTY, concat_reduce, invert, word_from_text
from diffeolab.zassenhaus.flatten import _candidate_word, _closest_same_bucket, \
    _final_audits

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
