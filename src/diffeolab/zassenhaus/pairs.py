"""What the search engines share: the bucket sort of flatten and
collision, and the pair rule of transport and collision.

Two words in one bucket give a quotient g1^-1 g2 close to the identity.
``sorted_runs`` orders buckets by key, primary key first, and a bucket's
rows by tie columns, then by index: flatten ties by the raw first value and
takes the closest adjacent pair; collision keeps index order, and
``pick_pair`` prefers pairs that differ as group elements.
"""

from __future__ import annotations

import functools

import numpy as np


def sorted_runs(keys, tie=()):
    """``(order, same)``: ``order`` sorts rows stably by the key columns
    ``keys`` (primary first), then by the columns ``tie``, and ``same[k]``
    says sorted rows k and k + 1 share every key, folded key by key."""
    order = np.lexsort((*tie, *keys[::-1]))
    same = np.ones(max(len(order) - 1, 0), bool)
    for key in keys:
        col = key[order]
        same &= col[1:] == col[:-1]
    return order, same


def pick_pair(groups, form=None, stop=None):
    """First pair ``(anchor, other, certified)`` over ``groups``, or None.

    ``groups`` yields ``(anchor, others)`` index groups in canonical order.
    Without ``form`` the first anchor and its first other win, uncertified.
    With ``form`` (index -> normal form, called at most once per index) the
    first pair whose forms differ wins, certified; the first pair of all is
    the fallback, and once ``stop`` groups have been tried a fallback ends
    the search.
    """
    nf = form and functools.cache(form)
    fallback = None
    for count, (a, others) in enumerate(groups):
        if fallback and stop is not None and count >= stop:
            break
        a = int(a)
        for b in map(int, others):
            if nf is None:
                return a, b, False
            if nf(a) != nf(b):
                return a, b, True
            fallback = fallback or (a, b, False)
    return fallback
