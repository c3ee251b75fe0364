"""Interval transport: per-letter contraction audit, sums, overlap search."""

import pytest

import diffeolab as dl
from diffeolab.action import word_values
from diffeolab.generators import blend, build_pp, mobius
from diffeolab.words import Word, level_word, sphere_levels
from diffeolab.zassenhaus import TransportParams, build_wreath_pair, \
    interval_transport_search, transport


@pytest.fixture(scope="module")
def pair():
    return build_wreath_pair(0.1, (0.40, 0.42), 3)


def test_wreath_overlap_found(pair):
    S = pair.generator_set
    params = TransportParams(x0=0.41, delta_len=0.05, epsilon=0.1,
                             lam=1.1, n_max=6)
    rep = interval_transport_search(S, params, nf=pair.normal_form)
    assert rep.status == "found"
    assert rep.distinctness == "distinct_by_normal_form"
    assert rep.g1.text != rep.g2.text
    assert rep.pullback_in_delta
    assert rep.delta_g1.lo <= rep.g2_x0 <= rep.delta_g1.hi
    assert all(r.transition_violations == 0 for r in rep.rows)
    assert all(r.bound_ok for r in rep.rows)


def test_transition_audit_nonvacuous():
    # near-identity blends with epsilon = 0.05 make the factor 0.5 bite
    f = build_pp()["f"]
    S = dl.GeneratorSet([blend("a", f, 0.004), blend("b", f, 0.002)])
    params = TransportParams(x0=0.3, delta_len=0.02, epsilon=0.05,
                             lam=1.1, n_max=5)
    rep = interval_transport_search(S, params)
    assert all(r.transition_violations == 0 for r in rep.rows)
    assert all(r.bound_ok for r in rep.rows if r.bound_applicable)
    assert rep.rows[0].lower_bound > 0


def test_transition_violations_match_word_by_word_count(monkeypatch):
    # Maps outside the epsilon-ball contract some intervals below the factor
    # 1 - 10 eps = 0.9, so the audit has violations to count; each word is
    # compared with its suffix (the word without its leading letter).
    monkeypatch.setattr(transport, "check_c1_ball", lambda S, eps: None)
    S = dl.GeneratorSet([mobius("f", 1.5), mobius("g", 0.8)])
    params = TransportParams(x0=0.3, delta_len=0.05, epsilon=0.01,
                             lam=1.1, n_max=5)
    rep = interval_transport_search(S, params)
    factor = 1.0 - 10.0 * params.epsilon
    ends = [params.delta.lo, params.delta.hi]
    levels = sphere_levels(S, params.n_max)
    for m, row in enumerate(rep.rows, start=1):
        want = 0
        for i in range(levels[m].size):
            w = level_word(levels, m, i, S)
            lo, hi = word_values(w, ends, S)
            s_lo, s_hi = word_values(Word(w.letters[1:]), ends, S)
            want += bool(hi - lo < factor * (s_hi - s_lo) - 1e-15)
        assert row.transition_violations == want
    assert sum(r.transition_violations for r in rep.rows) > 0


def test_singleton_not_found():
    # one near-identity map, base interval shorter than the orbit step
    S = dl.GeneratorSet([mobius("f", 1.02)])
    params = TransportParams(x0=0.5, delta_len=0.002, epsilon=0.05,
                             lam=1.1, n_max=8)
    rep = interval_transport_search(S, params)
    assert rep.status == "not_found"
    assert [r.sphere_words for r in rep.rows] == [2] * 8


def test_ball_precondition():
    S = dl.GeneratorSet([mobius("f", 2.0)])
    params = TransportParams(x0=0.5, delta_len=0.05, epsilon=0.1,
                             lam=1.1, n_max=3)
    with pytest.raises(dl.PreconditionError):
        interval_transport_search(S, params)


def test_interval_inside_unit(pair):
    params = TransportParams(x0=0.99, delta_len=0.05, epsilon=0.1,
                             lam=1.1, n_max=3)
    with pytest.raises(dl.DomainError):
        interval_transport_search(pair.generator_set, params)
