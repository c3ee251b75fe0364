"""Wreath pair construction and the exact normal-form word problem."""

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.action import word_values
from diffeolab.words import Word, concat_reduce, reduce_letters, word_from_text
from diffeolab.zassenhaus import WreathNormalForm, build_wreath_pair, \
    wreath_normal_form

RNG = np.random.default_rng(3131)


@pytest.fixture(scope="module")
def pair():
    return build_wreath_pair(0.1, (0.40, 0.42), 3)


def test_distances_certified(pair):
    assert pair.d1_u.certified_bound < 0.1
    assert pair.d1_v.certified_bound < 0.1


def test_translates_disjoint_and_ordered(pair):
    ts = pair.translates
    assert len(ts) == 7
    assert ts[3].lo == pair.core.lo and ts[3].hi == pair.core.hi
    for a, b in zip(ts, ts[1:]):
        assert a.hi < b.lo


def test_shift_clears_core(pair):
    assert pair.v.value(pair.core.lo) > pair.core.hi


def test_bump_is_identity_off_core(pair):
    xs = np.concatenate([np.linspace(0.0, 0.399, 200),
                         np.linspace(0.421, 1.0, 200)])
    assert np.max(np.abs(pair.u.value(xs) - xs)) <= 1e-15


def test_commutator_with_conjugate_is_identity(pair):
    S = pair.generator_set
    w = word_from_text("u v u v^-1 u^-1 v u^-1 v^-1", S)
    assert pair.normal_form(w).is_identity
    xs = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(word_values(w, xs, S) - xs)) <= 1e-12


def test_infeasible_configurations():
    with pytest.raises(dl.ConstructionError):
        build_wreath_pair(1e-6, (0.40, 0.44), 10)
    # clearing a 0.04-wide core at 0.40 needs sup|v'-1| > 0.1 by mean value
    with pytest.raises(dl.ConstructionError):
        build_wreath_pair(0.1, (0.40, 0.44), 3)
    with pytest.raises(dl.ConstructionError) as exc:
        build_wreath_pair(0.1, (0.40, 0.42), 25)
    assert exc.value.feasible_k >= 3


def test_normal_form_examples():
    w = word_from_text("v u v^-1")
    assert wreath_normal_form(w) == WreathNormalForm(0, ((1, 1),))
    assert wreath_normal_form(word_from_text("u u^-1")).is_identity
    assert wreath_normal_form(word_from_text("v v u")) == \
        WreathNormalForm(2, ((2, 1),))
    with pytest.raises(dl.DomainError):
        wreath_normal_form(word_from_text("u w"))


def random_wreath_word(max_len=20):
    letters = []
    n = int(RNG.integers(1, max_len + 1))
    alphabet = [("u", 1), ("u", -1), ("v", 1), ("v", -1)]
    for _ in range(n):
        letters.append(alphabet[int(RNG.integers(4))])
    return reduce_letters(letters)


def test_normal_form_of_letters_folds_to_word_form():
    # oracle: fold per-letter forms through the group law
    letter_nf = {("u", 1): WreathNormalForm(0, ((0, 1),)),
                 ("u", -1): WreathNormalForm(0, ((0, -1),)),
                 ("v", 1): WreathNormalForm(1, ()),
                 ("v", -1): WreathNormalForm(-1, ())}
    for _ in range(2000):
        w = random_wreath_word()
        acc = WreathNormalForm.identity()
        for letter in w.letters:
            acc = acc.mul(letter_nf[(letter.gen, letter.sign)])
        assert acc == wreath_normal_form(w)


def test_normal_form_homomorphism():
    for _ in range(10_000):
        w1, w2 = random_wreath_word(10), random_wreath_word(10)
        lhs = wreath_normal_form(concat_reduce(w1, w2))
        rhs = wreath_normal_form(w1).mul(wreath_normal_form(w2))
        assert lhs == rhs


def test_normal_form_detects_identity_maps(pair):
    S = pair.generator_set
    xs = np.linspace(0.0, 1.0, 1001)
    trivial = word_from_text("v u v^-1 v u^-1 v^-1")  # reduces, nf identity
    assert wreath_normal_form(trivial).is_identity
    assert np.max(np.abs(word_values(trivial, xs, S) - xs)) <= 1e-10
    nontrivial = word_from_text("u v u^-1 v^-1")
    assert not wreath_normal_form(nontrivial).is_identity
    assert np.max(np.abs(word_values(nontrivial, xs, S) - xs)) > 1e-10


def test_probe_positive_floor_with_flagged_zeros(pair):
    rep = dl.probe_ball(pair.generator_set, 6, 0.405)
    # words supported away from x0 act trivially there, so the literal
    # minimum degenerates; the evidence is the strictly positive floor
    disp, gap = rep.minima["displacement"], rep.minima["deriv_gap"]
    assert disp.degenerate and gap.degenerate
    assert gap.zero_words > 0
    assert disp.min_positive > 0
    assert gap.min_positive > 0
