"""Free-word algebra over a symmetrized generator alphabet.

Words are stored in written (composition) order: the last letter acts first,
matching how reports print them.  All enumeration orders are canonical and
deterministic: letters compare by (generator position, sign) with the positive
sign first, words by length then lexicographically.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError
from .generators import GeneratorSet, Letter


@dataclass(frozen=True)
class Word:
    """A freely reduced word; build through :func:`reduce_letters`."""

    letters: tuple[Letter, ...] = ()

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __repr__(self):
        return f"Word({self.text!r})"

    @property
    def text(self) -> str:
        """Compact text form, e.g. ``f g^-1 f``; the empty word prints as 1."""
        if not self.letters:
            return "1"
        return " ".join(l.text for l in self.letters)

    def is_positive(self) -> bool:
        return all(l.sign > 0 for l in self.letters)


EMPTY = Word()


def reduce_letters(seq, S: GeneratorSet | None = None) -> Word:
    """Freely reduce a letter sequence; the unique normal form of the word."""
    letters = tuple(Letter(*raw) for raw in seq)
    for letter in letters:
        if S is not None and letter.gen not in S:
            raise DomainError(f"unknown generator id {letter.gen!r}")
    return concat_reduce(EMPTY, Word(letters))


def invert(w: Word) -> Word:
    return Word(tuple(l.inverse() for l in reversed(w.letters)))


def concat_reduce(w1: Word, w2: Word) -> Word:
    """The reduced product w1 * w2 (w2 acts first)."""
    stack = list(w1.letters)
    for letter in w2.letters:
        if stack and stack[-1].gen == letter.gen and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack))


def word_from_text(text: str, S: GeneratorSet | None = None) -> Word:
    text = text.strip()
    if text in ("", "1"):
        return EMPTY
    letters = []
    for tok in text.split():
        if tok.endswith("^-1"):
            letters.append(Letter(tok[:-3], -1))
        else:
            letters.append(Letter(tok, 1))
    return reduce_letters(letters, S)


# -- enumeration ---------------------------------------------------------------

def enumerate_sphere(S: GeneratorSet, n: int):
    """Yield every freely reduced word of length n exactly once, in canonical
    lexicographic order."""
    if n < 0:
        raise DomainError("sphere radius must be nonnegative")
    levels = sphere_levels(S, n)
    for idx in range(levels[n].size):
        yield level_word(levels, n, idx, S)


def enumerate_positive(pair: tuple[str, str], max_len: int):
    """All inverse-free words over two symbols, lengths 1..max_len.

    Exactly 2^(max_len+1) - 2 words, shortest first and lexicographic within
    each length (first symbol < second symbol).
    """
    if max_len < 1:
        raise DomainError("max_len must be at least 1")
    symbols = (Letter(pair[0], 1), Letter(pair[1], 1))
    for length in range(1, max_len + 1):
        for letters in itertools.product(symbols, repeat=length):
            yield Word(letters)


def positive_count(max_len: int) -> int:
    return (1 << (max_len + 1)) - 2


# -- vectorized level arrays ---------------------------------------------------

@dataclass(frozen=True)
class SphereLevel:
    """Sphere words of one length, described by offsets alone.

    Rows are grouped by leading (leftmost) letter: alphabet letter s leads
    exactly the rows ``offsets[s]:offsets[s + 1]`` (all offsets of level 0,
    the empty word, are 0).  Row order is the canonical lexicographic order,
    so indices double as tie-breakers.  A row's suffix (the word without its
    leading letter) is a row of the previous level, whose offsets and size
    are kept as ``prev_offsets`` and ``prev_size``: letter s leads every
    previous row outside the block of its inverse s ^ 1, in order, so its
    rows map onto two contiguous runs of suffix rows (see ``suffix_slices``).
    """

    n: int
    offsets: tuple[int, ...]
    prev_offsets: tuple[int, ...]
    prev_size: int

    @property
    def size(self) -> int:
        return self.offsets[-1] if self.n else 1

    def suffix_slices(self, s: int | None = None):
        """Yield ``(rows, suffix_rows)`` slice pairs for letter ``s``, or for
        every letter when ``s`` is None.

        With ``[a, b)`` the previous level's block of s ^ 1, the first ``a``
        rows of s take suffix rows ``0:a`` and the rest take ``b:prev_size``.
        """
        letters = range(len(self.offsets) - 1) if s is None else (s,)
        for t in letters:
            a, b = self.prev_offsets[t ^ 1], self.prev_offsets[(t ^ 1) + 1]
            cut = self.offsets[t] + a
            if a:
                yield slice(self.offsets[t], cut), slice(0, a)
            if b < self.prev_size:
                yield slice(cut, self.offsets[t + 1]), slice(b, self.prev_size)

    def suffix_row(self, idx: int) -> tuple[int, int]:
        """(leading letter, suffix row) of row ``idx``."""
        s = bisect_right(self.offsets, idx) - 1
        r = idx - self.offsets[s]
        a = self.prev_offsets[s ^ 1]
        return s, (r if r < a else r - a + self.prev_offsets[(s ^ 1) + 1])


def sphere_levels(S: GeneratorSet, n_max: int, cap: int | None = None):
    """Level descriptions for spheres 0..n_max (level 0 is the empty word).

    Stops early when the cumulative word count would exceed ``cap``; callers
    treat a short list as a partial enumeration.
    """
    k = len(S.alphabet)
    levels = [SphereLevel(0, (0,) * (k + 1), (), 0)]
    total = 1
    for n in range(1, n_max + 1):
        # Letter s may lead every suffix except those led by its inverse.
        prev = levels[-1]
        counts = (prev.size - (prev.offsets[(s ^ 1) + 1] - prev.offsets[s ^ 1])
                  for s in range(k))
        offsets = tuple(itertools.accumulate(counts, initial=0))
        if cap is not None and total + offsets[-1] > cap:
            break
        levels.append(SphereLevel(n, offsets, prev.offsets, prev.size))
        total += offsets[-1]
    return levels


def level_word(levels, n: int, idx: int, S: GeneratorSet) -> Word:
    """Reconstruct the word at (level n, row idx)."""
    letters = []
    for m in range(n, 0, -1):
        s, idx = levels[m].suffix_row(idx)
        letters.append(S.alphabet[s])
    return Word(tuple(letters))


def sphere_size(rank: int, n: int) -> int:
    """Reduced-word count of length n over a rank-``rank`` symmetric alphabet."""
    if n == 0:
        return 1
    k = 2 * rank
    return k * (k - 1) ** (n - 1)


@dataclass(frozen=True)
class BallStats:
    """Sphere sizes up to radius n and the n-th root growth estimate."""

    n: int
    sphere_sizes: tuple[int, ...]
    omega_estimate: float


def growth_stats(S: GeneratorSet, n: int) -> BallStats:
    sizes = tuple(sphere_size(len(S.generators), m) for m in range(n + 1))
    ball = sum(sizes)
    if n < 0 or ball > sys.float_info.max:
        raise DomainError(f"growth needs a radius n >= 0 whose ball size fits a float, not {n}")
    return BallStats(n=n, sphere_sizes=sizes,
                     omega_estimate=ball ** (1.0 / n) if n else 1.0)
