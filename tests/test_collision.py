"""Derivative collision search: parameter checks, buckets, pull-back audits."""

import math

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.action import apply_word
from diffeolab.words import concat_reduce, invert, level_word, sphere_levels
from diffeolab.zassenhaus import CollisionParams, build_wreath_pair, \
    derivative_collision_search
from diffeolab.zassenhaus.collision import _bucket_pair


@pytest.fixture(scope="module")
def pair():
    return build_wreath_pair(0.1, (0.40, 0.42), 3)


def eps_of(pair):
    return max(pair.d1_u.certified_bound, pair.d1_v.certified_bound)


def test_param_validation():
    with pytest.raises(dl.PreconditionError):
        # epsilon >= lambda - 1 leaves no room for eta
        CollisionParams(x0=0.5, c=0.5, lam=1.1, epsilon=0.2).resolved().validate()
    with pytest.raises(dl.PreconditionError):
        CollisionParams(x0=0.5, c=0.5, lam=1.1, epsilon=0.05,
                        c1=0.3).resolved().validate()
    p = CollisionParams(x0=0.5, c=0.5, lam=1.1, epsilon=0.05).resolved()
    p.validate()
    assert 1.0 < p.eta < p.lam / (1.0 + p.epsilon)
    assert (1.0 - p.c < (1.0 - p.c1) ** 2 and (1.0 + p.c1) ** 2 < 1.0 + p.c)
    assert p.big_l == 1.05


def test_wreath_pair_found(pair):
    S = pair.generator_set
    params = CollisionParams(x0=0.5, c=0.5, lam=1.1, epsilon=eps_of(pair),
                             n_max=14)
    rep = derivative_collision_search(S, params, nf=pair.normal_form)
    assert rep.status == "found"
    assert rep.n_found <= 14
    assert rep.star1_gap <= rep.star1_bound
    p = rep.params
    assert 1.0 - p.c1 < rep.deriv_ratio < 1.0 + p.c1
    assert 1.0 - p.c < rep.v_deriv < 1.0 + p.c
    assert rep.audit_violations == 0 and rep.audit_steps == rep.n_found
    assert rep.chain_rel_err <= 1e-10
    assert rep.distinctness == "distinct_by_normal_form"
    assert rep.n1 is not None and rep.n1 > rep.n_found


def test_sparse_buckets_not_found(pair):
    # a hairline derivative tolerance separates all four one-letter words
    S = pair.generator_set
    params = CollisionParams(x0=0.405, c=0.005, lam=1.1, epsilon=eps_of(pair),
                             c1=0.002, n_max=1)
    rep = derivative_collision_search(S, params, nf=pair.normal_form)
    assert rep.status == "not_found"
    assert rep.rows[0].sphere_words == 4
    assert not rep.rows[0].pair_found


def bucket_rule(S, words, n, params, nf):
    """Brute-force pair rule on level n: buckets by exact integer keys of
    apply_word's value and log chain product, in key order; members in
    index order, the first one the anchor.  Returns (i1, i2, certified)."""
    width_v, width_d = params.lam ** float(-n), math.log1p(params.c1)
    groups = {}
    for i, w in enumerate(words):
        t = apply_word(w, params.x0, S)
        key = (math.floor(t.value / width_v),
               math.floor(math.log(t.chain_product) / width_d))
        groups.setdefault(key, []).append(i)
    fallback = None
    for key in sorted(groups):
        first, *others = groups[key]
        for other in others:
            if nf is None:
                return first, other, False
            if nf(words[first]) != nf(words[other]):
                return first, other, True
            fallback = fallback or (first, other, False)
    return fallback


def passes(S, g1, g2, n, params):
    """The search's acceptance checks: star-1, star-2 and V'(x0)."""
    t1, t2 = apply_word(g1, params.x0, S), apply_word(g2, params.x0, S)
    tv = apply_word(concat_reduce(invert(g1), g2), params.x0, S)
    ratio = t1.chain_product / t2.chain_product
    return (abs(t1.value - t2.value) <= params.lam ** float(-n)
            and 1.0 - params.c1 < ratio < 1.0 + params.c1
            and 1.0 - params.c < tv.chain_product < 1.0 + params.c)


def test_buckets_follow_chain_rule(pair):
    # Reference: bucket every level by apply_word's value and log chain
    # product.  Each rule pair below the search's level fails the acceptance
    # checks; at that level the search reports the rule pair.
    S = pair.generator_set
    for c, c1, n_found in ((0.02, 0.008, 3), (0.05, 0.02, 6)):
        params = CollisionParams(x0=0.405, c=c, lam=1.1, epsilon=eps_of(pair),
                                 c1=c1, n_max=8)
        levels = sphere_levels(S, n_found)
        for nf in (None, pair.normal_form):
            rep = derivative_collision_search(S, params, nf=nf)
            assert rep.status == "found" and rep.n_found == n_found
            for n in range(1, n_found + 1):
                words = [level_word(levels, n, i, S)
                         for i in range(levels[n].size)]
                found = bucket_rule(S, words, n, params, nf)
                accepted = found is not None and passes(
                    S, words[found[0]], words[found[1]], n, params)
                assert accepted == (n == n_found)
            i1, i2, certified = found
            assert (rep.g1, rep.g2) == (words[i1], words[i2])
            assert rep.distinctness == ("distinct_by_normal_form" if certified
                                        else "word_distinct_only")


def test_bucket_keys_past_int64_stay_distinct():
    # floor(x / width) is about 4e20 here, past 2^63: the three values keep
    # three buckets instead of sharing one overflowed integer key.
    assert _bucket_pair(np.array([0.41, 0.42, 0.43]), np.zeros(3), 1e-21,
                        math.log1p(0.01), None) is None


def test_ball_precondition():
    S = dl.GeneratorSet([dl.mobius("f", 2.0)])
    params = CollisionParams(x0=0.5, c=0.5, lam=1.5, epsilon=0.1)
    with pytest.raises(dl.PreconditionError):
        derivative_collision_search(S, params)


def test_bracket_constant_documented(pair):
    params = CollisionParams(x0=0.5, c=0.5, lam=1.1,
                             epsilon=eps_of(pair)).resolved()
    n1 = derivative_collision_search(pair.generator_set, params,
                                     nf=pair.normal_form).n1
    # the bracket level satisfies its defining inequalities
    t = params.eta ** float(-n1)
    assert (1.0 - params.c1 < (1.0 - t) ** n1
            and (1.0 + t) ** n1 < 1.0 + params.c1)
