"""The pigeonhole pair rule that transport and collision share.

Two words in one bucket give a quotient g1^-1 g2 close to the identity; the
rule picks which two, preferring pairs that differ as group elements.
"""

from __future__ import annotations

import functools


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
