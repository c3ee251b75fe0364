"""Flattening pipeline: escape search, case analysis, pigeonhole iteration,
and the end-to-end run on the reference pair."""

import copy
import csv
import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.action import GridSpec, apply_word, c0_dist_to_id, orbit, word_values
from diffeolab.certify import Interval
from diffeolab.generators import SCALAR_INVERSE_MAX, build_pp, mobius
from diffeolab.reports import emit_flatten
from diffeolab.zassenhaus import (FlattenParams, choose_case, find_escape_word,
                                  flatten, pigeonhole_bound)
from diffeolab.words import EMPTY, concat_reduce, invert, word_from_text
from diffeolab.zassenhaus.flatten import _candidate_word, _closest_same_bucket, \
    _final_audits, _values_past
from diffeolab.zassenhaus.pairs import sorted_runs

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


def reference_closest_same_bucket(rows, width):
    """The bucket pass as it was before the shared sort: floor keys, one
    ``lexsort``, sorted key and row copies, and a masked L-inf argmin."""
    keys = np.floor(rows / width)
    order = np.lexsort((rows[:, 0], *keys.T[::-1]))
    sorted_keys = keys[order]
    same = np.all(sorted_keys[1:] == sorted_keys[:-1], axis=1)
    buckets = len(rows) - int(np.count_nonzero(same))
    if not np.any(same):
        return buckets, None
    sorted_rows = rows[order]
    linf = np.max(np.abs(sorted_rows[1:] - sorted_rows[:-1]), axis=1)
    linf[~same] = np.inf
    k = int(np.argmin(linf))
    return buckets, tuple(sorted((int(order[k]), int(order[k + 1]))))


Z0 = 1.0 - 2.9e-5          # the candidates' floor z0 at epsilon = 0.1


def bucket_rows(rng, rows, cols, levels=None):
    """Seeded candidate-like rows in [Z0, 1]; with ``levels``, on a lattice
    of that many values, so first values and L-inf distances tie."""
    if levels is None:
        return rng.uniform(Z0, 1.0, (rows, cols))
    return Z0 + (1.0 - Z0) * rng.integers(0, levels, (rows, cols)) / levels


@pytest.mark.parametrize("case, rows, cols, levels, width", [
    ("equal first values", 400, 4, 3, 2e-5),
    ("one bucket", 300, 5, None, 1.0),
    ("no pair", 300, 5, None, 1e-9),
    ("keys past 2^63", 300, 2, 4, 1e-24),
    ("two rows, one bucket", 2, 3, None, 1.0),
    ("two rows, two buckets", 2, 3, None, 1e-9),
    ("uniform", 2000, 2, None, 3e-6),
])
def test_bucket_pass_matches_the_reference(case, rows, cols, levels, width):
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(5):
        values = bucket_rows(rng, rows, cols, levels)
        # A strided view too, as flatten passes the store's value columns.
        for v in (values, values[:, ::-1]):
            assert _closest_same_bucket(v, width) == \
                reference_closest_same_bucket(v, width)


@pytest.mark.parametrize("case", ["mixed", "all constant", "nan"])
def test_bucket_pass_drops_constant_key_columns_bitwise(case, monkeypatch):
    # Multi-bucket lattice rows, so column 0 ties, with constant columns mixed
    # in; the all-column reference sorts by every key.
    rng = np.random.default_rng(sum(map(ord, case)))
    values = bucket_rows(rng, 600, 4, 3)
    values[:, 2] = Z0
    const = np.full((600, 2), 1.0)
    values = np.hstack([const[:, :1], values, const])
    if case == "all constant":
        values[:] = values[:1]
    if case == "nan":  # a column constant but for one NaN stays a key
        values[:, 0] = 1.0 - 1e-6
        values[17, 0] = math.nan
    sorted_keys = []
    monkeypatch.setattr(importlib.import_module("diffeolab.zassenhaus.flatten"), "sorted_runs",
                        lambda keys, tie: sorted_keys.append(len(keys)) or sorted_runs(keys, tie))
    for width in (2e-5, 1e-5, 1.0):
        assert _closest_same_bucket(values, width) == \
            reference_closest_same_bucket(values, width)
    # Only the three lattice columns vary, and at width 1 none does; the
    # NaN column stays a key at every width.
    assert sorted_keys == {"mixed": [3, 3, 0], "all constant": [0, 0, 0],
                           "nan": [4, 4, 1]}[case]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("levels, width", [(2, 1.0), (4, 1.45e-5), (6, 1e-5),
                                           (None, 3e-6), (None, 1.0)])
def test_bucket_pass_blocks_match_the_reference(threads, levels, width):
    # 30,000 rows of 10 values make five map_row_blocks blocks.  On the
    # lattices, tied minima sit in several blocks and the first must win.
    values = bucket_rows(np.random.default_rng(23), 30_000, 10, levels)
    assert _closest_same_bucket(values, width, threads) == \
        reference_closest_same_bucket(values, width)


@pytest.mark.parametrize("width", [1e-9, 1.0])
def test_bucket_pass_peak_stays_near_its_keys(width):
    values = bucket_rows(np.random.default_rng(5), 1 << 16, 10)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        _closest_same_bucket(values, width)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # The key columns take the values' bytes; the old pass peaked at 5.1x.
    assert peak <= 1.5 * values.nbytes


@pytest.mark.parametrize("base", [1e200, 1.0, 0.5, 0.0, math.nan])
def test_flatten_rejects_a_bucket_base_without_a_normal_width(base):
    # 1e200 ** -2 underflows to 0, which would put a level in one bucket.
    with pytest.raises(dl.PreconditionError):
        flatten(F, G, CERT, 0.5, FlattenParams(0.5, n_max=12, bucket_base=base))


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


@pytest.mark.parametrize("grid_n", [0, 1, -3])
def test_flatten_rejects_a_grid_without_positive_cells_finer_than_epsilon(grid_n):
    # 0 is a grid size like any other, not a request for the default grid.
    with pytest.raises(dl.PreconditionError, match="grid too coarse"):
        flatten(F, G, CERT, 0.5, FlattenParams(0.5, n_max=3, grid_n=grid_n))


def test_flatten_epsilon_must_match_params():
    # The run reads epsilon from two places; they may not disagree.
    with pytest.raises(dl.PreconditionError, match="params.epsilon"):
        flatten(F, G, CERT, 0.1, FlattenParams(0.2))


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
    assert rep.c0.grid_max > 0


def test_flatten_accepted_word_verified_densely():
    rep = flatten(F, G, CERT, 0.5)
    xs = np.linspace(0.0, 1.0, 100_001)
    dense = float(np.max(np.abs(word_values(rep.v, xs, PP) - xs)))
    assert dense <= rep.c0.certified_bound
    assert dense < 1.0


def spellings(letters, alpha, beta):
    """Every way to write ``letters`` as a sequence of alpha and beta."""
    if not letters:
        return [()]
    return [(name, *rest) for name, block in (("alpha", alpha), ("beta", beta))
            if letters[:len(block)] == block.letters
            for rest in spellings(letters[len(block):], alpha, beta)]


@pytest.mark.parametrize("epsilon", [0.5, 0.2, 0.1])
def test_shipped_witnesses_are_nontrivial_by_ping_pong(epsilon):
    # alpha and beta are positive words in one sign of a ping-pong pair, so
    # distinct alpha/beta sequences that each spell one word give distinct
    # maps; then g1 != g2 and v = W^-1 (g1^-1 g2) W is not the identity.
    rep = flatten(F, G, CERT, epsilon)
    assert CERT.valid and rep.status == "success"
    signs = {letter.sign for letter in rep.alpha.letters + rep.beta.letters}
    assert len(signs) == 1
    s1, s2 = (spellings(g.letters, rep.alpha, rep.beta) for g in (rep.g1, rep.g2))
    assert len(s1) == len(s2) == 1 and s1 != s2
    core = concat_reduce(invert(rep.g1), rep.g2)
    assert rep.v == concat_reduce(concat_reduce(invert(rep.w), core), rep.w)
    # In floats the core moves the middle of [0, 1] far from rounding.
    xs = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(word_values(core, xs, PP) - xs)) > 0.06


def test_flatten_cap_exhausted_on_tiny_level_budget():
    rep = flatten(F, G, CERT, 0.2, FlattenParams(0.2, n_max=1))
    assert rep.status == "cap_exhausted"
    assert rep.best_v is not None
    assert rep.best_certified >= 0.4


def levels_before_the_cap(n_max, cap):
    """The level loop's old stopping rule: after level n, stop once the
    next level's total 2^(n+2) - 2 would pass the cap."""
    total = 0
    for n in range(1, n_max + 1):
        total += 2 ** n
        if total * 2 + 2 > cap:
            return n
    return n_max


@pytest.mark.parametrize("cap", [0, 2, 5, 6, 13, 14, 62, 1 << 21])
def test_flatten_store_holds_the_levels_the_caps_allow(cap):
    # Base 1e6 keeps every candidate in a bucket of its own, so the run
    # goes on until n_max or the candidate cap stops it.
    rep = flatten(F, G, CERT, 0.5, FlattenParams(0.5, n_max=9, candidate_cap=cap,
                                                 bucket_base=1e6))
    n_last = levels_before_the_cap(9, cap)
    assert [row.n for row in rep.rows] == list(range(1, n_last + 1))
    assert rep.candidates_total == 2 ** (n_last + 1) - 2
    assert rep.status == "cap_exhausted"


def test_flatten_reserves_only_the_levels_it_reaches():
    # At epsilon = 0.5 the default caps allow 2^21 - 2 candidate rows, but
    # the run accepts within two levels; a store reserved for every allowed
    # level up front traced 67 MiB in this test.
    tracemalloc.start()
    try:
        rep = flatten(F, G, CERT, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "success" and rep.candidates_total <= 6
    assert peak < 16 * 2 ** 20


def test_flatten_out_of_time_before_level_one_audits_nothing():
    rep = flatten(F, G, CERT, 0.5, FlattenParams(0.5, time_budget_s=0))
    assert rep.status == "time_budget" and rep.rows == []
    assert rep.candidates_total == 0 and rep.lemma1_min_slack == math.inf
    assert rep.lemma1_violations == rep.suffix_violations == 0


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
    """In-zone letter derivatives of the theta audit, with W applied whole:
    g'(x) for g, and 1 / g'(y) at the orbit's clipped value y for g^-1."""
    pts = word_values(concat_reduce(rep.g2, rep.w), grid.interior_points(), PP)
    out = []
    for gmap, sign, x, y, _ in orbit(invert(concat_reduce(rep.g1, rep.w)), pts, PP):
        zone = x >= 1.0 - rep.delta
        ds = gmap.deriv(x[zone]) if sign > 0 else 1.0 / gmap.deriv(y[zone])
        out.extend(ds.tolist())
    return out


@pytest.mark.parametrize("grid_n", [None, SCALAR_INVERSE_MAX, 2 * SCALAR_INVERSE_MAX])
def test_cached_w_grid_gives_the_uncached_report_bitwise(monkeypatch, tmp_path, grid_n):
    # The default grid (N + 1 = 7) takes the scalar inverse; N =
    # SCALAR_INVERSE_MAX puts the N + 1 grid points on the array route and
    # the N - 1 interior ones on the scalar route, so W's cached values come
    # from a different route than a fresh W on the interior would.  N =
    # 2 * SCALAR_INVERSE_MAX puts both on the array route.
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

    # nontrivial_at is the accepted C0 check's own argmax and grid maximum.
    emit_flatten(rep, str(tmp_path))
    with open(tmp_path / "flatten_detail.csv", newline="") as fh:
        at = next(csv.DictReader(fh))["nontrivial_at"].split(":")
    assert _bits([float(v) for v in at]) == _bits([rep.c0.argmax_x, rep.c0.grid_max])

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


@pytest.mark.parametrize("size", [7, 2 * SCALAR_INVERSE_MAX + 1, 4 * SCALAR_INVERSE_MAX + 1])
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
