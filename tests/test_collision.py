"""Derivative collision search: parameter checks, buckets, pull-back audits."""

import math

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.action import apply_word
from diffeolab.words import level_word, sphere_levels
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


def test_buckets_follow_chain_rule(pair):
    # Reference: bucket the accepted level by apply_word's value and log
    # chain product; the search must accept the pair those buckets give.
    S = pair.generator_set
    params = CollisionParams(x0=0.405, c=0.02, lam=1.1, epsilon=eps_of(pair),
                             c1=0.008, n_max=8)
    rep = derivative_collision_search(S, params)
    n = rep.n_found
    assert rep.status == "found" and n >= 3
    levels = sphere_levels(S, n)
    words = [level_word(levels, n, i, S) for i in range(levels[n].size)]
    traces = [apply_word(w, params.x0, S) for w in words]
    i1, i2, _ = _bucket_pair(np.array([t.value for t in traces]),
                             np.log([t.chain_product for t in traces]),
                             params.lam ** float(-n), math.log1p(params.c1), None)
    assert (rep.g1, rep.g2) == (words[i1], words[i2])


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
