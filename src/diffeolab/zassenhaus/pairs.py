"""What the search engines share: the time budget, and the pigeonhole pair
rule of transport and collision.

Two words in one bucket give a quotient g1^-1 g2 close to the identity; the
rule picks which two, preferring pairs that differ as group elements.
"""

from __future__ import annotations

import functools
import time


def budget_spent(time_budget_s):
    """A check that says whether ``time_budget_s`` seconds have passed since
    this call.  None never runs out; any number, 0 included, bounds the run."""
    if time_budget_s is None:
        return lambda: False
    deadline = time.monotonic() + time_budget_s
    return lambda: time.monotonic() >= deadline


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
