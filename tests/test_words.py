"""Free-word algebra: reduction, enumeration, counting, serialization."""

import itertools
import tracemalloc

import numpy as np
import pytest

import diffeolab as dl
from diffeolab.generators import Letter, build_pp
from diffeolab.words import (EMPTY, Word, concat_reduce, enumerate_positive,
                             enumerate_sphere, invert, level_word,
                             positive_count, reduce_letters, sphere_levels,
                             sphere_size, word_from_text)

S = build_pp()
F, FI, G, GI = S.alphabet
RNG = np.random.default_rng(77)


def random_word(max_len=14):
    letters = []
    for _ in range(int(RNG.integers(0, max_len + 1))):
        letters.append(S.alphabet[int(RNG.integers(4))])
    return reduce_letters(letters)


def test_reduce_examples():
    assert reduce_letters([F, FI]) is not None
    assert reduce_letters([F, FI]).letters == ()
    assert reduce_letters([F, G, GI, F]).letters == (F, F)
    assert reduce_letters([F, G]).letters == (F, G)


def test_reduce_idempotent_and_unknown_id():
    w = reduce_letters([F, G, GI, FI, G])
    assert reduce_letters(w.letters).letters == w.letters
    with pytest.raises(dl.DomainError):
        reduce_letters([Letter("zz", 1)], S)


def test_invert_and_concat():
    w = reduce_letters([F, GI])
    assert invert(w).letters == (G, FI)
    assert concat_reduce(Word((F,)), Word((FI, G))).letters == (G,)
    assert concat_reduce(EMPTY, w).letters == w.letters
    for _ in range(10_000):
        w = random_word()
        assert concat_reduce(w, invert(w)).letters == ()


def brute_sphere(n):
    """Oracle: filter all letter tuples for free reduction."""
    out = []
    for tup in itertools.product(range(4), repeat=n):
        if all(tup[i + 1] != (tup[i] ^ 1) for i in range(n - 1)):
            out.append(tuple(S.alphabet[j] for j in tup))
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_sphere_matches_brute_force(n):
    got = [w.letters for w in enumerate_sphere(S, n)]
    assert got == brute_sphere(n)


def test_sphere_counts():
    assert sum(1 for _ in enumerate_sphere(S, 0)) == 1
    assert sum(1 for _ in enumerate_sphere(S, 1)) == 4
    assert sum(1 for _ in enumerate_sphere(S, 2)) == 12
    for n in range(1, 11):
        assert sphere_size(2, n) == 4 * 3 ** (n - 1)


def test_sphere_enumeration_counts_match_formula():
    for n in range(0, 11):
        assert sum(1 for _ in enumerate_sphere(S, n)) == sphere_size(2, n)


def test_sphere_levels_agree_with_stream():
    levels = sphere_levels(S, 5)
    for n in range(6):
        stream = list(enumerate_sphere(S, n))
        assert levels[n].size == len(stream)
        for idx in range(levels[n].size):
            assert level_word(levels, n, idx, S).letters == stream[idx].letters


def reduced_index_tuples(n):
    """Oracle: reduced alphabet-index tuples in lexicographic (row) order."""
    return [t for t in itertools.product(range(4), repeat=n)
            if all(t[i + 1] != (t[i] ^ 1) for i in range(n - 1))]


@pytest.mark.parametrize("wreath", [False, True])
def test_level_offsets_group_rows_by_leading_letter(wreath):
    T = (dl.build_wreath_pair(epsilon=0.1, core=(0.40, 0.42), k=3).generator_set
         if wreath else S)
    levels = sphere_levels(T, 6)
    assert levels[0].offsets == (0,) * 5
    for n in range(1, 7):
        lev = levels[n]
        words = reduced_index_tuples(n)
        row_of_suffix = {t: i for i, t in enumerate(reduced_index_tuples(n - 1))}
        leading = np.array([t[0] for t in words])
        assert lev.offsets[-1] == lev.size == len(words)
        for s in range(4):
            led = slice(lev.offsets[s], lev.offsets[s + 1])
            assert np.array_equal(np.arange(lev.size)[led],
                                  np.nonzero(leading == s)[0])
        parent = np.full(lev.size, -1)
        for rows, src in lev.suffix_slices():
            parent[rows] = np.arange(src.start, src.stop)
        assert parent.tolist() == [row_of_suffix[t[1:]] for t in words]


@pytest.mark.parametrize("wreath", [False, True])
def test_suffix_slices_partition_rows(wreath):
    T = (dl.build_wreath_pair(epsilon=0.1, core=(0.40, 0.42), k=3).generator_set
         if wreath else S)
    levels = sphere_levels(T, 6)
    for n in range(1, 7):
        lev = levels[n]
        row_of_suffix = {t: i for i, t in enumerate(reduced_index_tuples(n - 1))}
        want = [row_of_suffix[t[1:]] for t in reduced_index_tuples(n)]
        covered = np.zeros(lev.size, dtype=int)
        for s in range(4):
            for rows, src in lev.suffix_slices(s):
                assert lev.offsets[s] <= rows.start < rows.stop <= lev.offsets[s + 1]
                assert rows.stop - rows.start == src.stop - src.start
                covered[rows] += 1
                assert list(range(src.start, src.stop)) == want[rows]
                assert [lev.suffix_row(i) for i in range(rows.start, rows.stop)] \
                    == [(s, j) for j in range(src.start, src.stop)]
        assert np.all(covered == 1)
        assert [p for s in range(4) for p in lev.suffix_slices(s)] \
            == list(lev.suffix_slices())


def test_level_word_at_radius_14():
    T = dl.build_wreath_pair(epsilon=0.1, core=(0.40, 0.42), k=3).generator_set
    levels = sphere_levels(T, 14)
    lev = levels[14]
    assert lev.size == sphere_size(2, 14)
    for idx in RNG.integers(0, lev.size, 1000).tolist():
        w = level_word(levels, 14, idx, T)
        assert len(w) == 14
        assert reduce_letters(w.letters).letters == w.letters
        s, suffix = lev.suffix_row(idx)
        assert w.letters[0] == T.alphabet[s]
        assert w.letters[1:] == level_word(levels, 13, suffix, T).letters


def test_sphere_levels_allocate_no_per_word_arrays():
    T = dl.build_wreath_pair(epsilon=0.1, core=(0.40, 0.42), k=3).generator_set
    tracemalloc.start()
    try:
        levels = sphere_levels(T, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(lev.size for lev in levels) == sum(sphere_size(2, n) for n in range(15))
    assert peak < 1 << 20


def test_enumeration_deterministic():
    a = [w.text for w in enumerate_sphere(S, 6)]
    b = [w.text for w in enumerate_sphere(S, 6)]
    assert a == b


def test_positive_counts_exact():
    # 2 + 4 + ... + 2^k, checked by full enumeration up to k = 20
    assert [w.text for w in enumerate_positive(("a", "b"), 1)] == ["a", "b"]
    assert sum(1 for _ in enumerate_positive(("a", "b"), 3)) == 14
    assert positive_count(10) == 2046
    assert sum(1 for _ in enumerate_positive(("a", "b"), 10)) == 2046
    for k in range(1, 21):
        assert positive_count(k) == 2 ** (k + 1) - 2
    assert sum(1 for _ in enumerate_positive(("a", "b"), 20)) == positive_count(20)


def test_positive_order_matches_bit_loop():
    a, b = Letter("a", 1), Letter("b", 1)
    old = [tuple(b if (bits >> (length - 1 - i)) & 1 else a for i in range(length))
           for length in range(1, 13) for bits in range(1 << length)]
    assert [w.letters for w in enumerate_positive(("a", "b"), 12)] == old


def test_positive_words_are_positive_and_ordered():
    seen = list(enumerate_positive(("f", "g"), 6))
    assert all(w.is_positive() for w in seen)
    lens = [len(w) for w in seen]
    assert lens == sorted(lens)


def test_serialization_round_trip():
    assert word_from_text("f g^-1 f").text == "f g^-1 f"
    assert word_from_text("1").letters == ()
    assert EMPTY.text == "1"
    for _ in range(2000):
        w = random_word()
        assert word_from_text(w.text, S).letters == w.letters


def test_growth_stats():
    stats = dl.growth_stats(S, 10)
    assert stats.sphere_sizes[0] == 1
    assert stats.sphere_sizes[2] == 12
    assert 2.9 < stats.omega_estimate < 3.5
