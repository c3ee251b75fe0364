"""Span tracer that wraps diffeolab's public layer functions from outside.

The package binds these functions by name (``from ..action import
word_values``), so a wrapper is rebound in every ``diffeolab.*`` module that
holds the original object; ``GeneratorMap.value``, ``deriv`` and ``inverse``
are wrapped on the class.  Spans stay in memory, one list per thread, until
the benchmark writes them out.  Worker threads start with an empty stack, so
kernel calls made from a thread pool become root spans of that thread: their
self times add up to busy thread-seconds, not to wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


def _size(x) -> int:
    return getattr(x, "size", 1)


def _gen_count(args, kwargs, result):
    x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return _size(x), int(getattr(x, "ndim", 0) == 0)


def _zero(args, kwargs, result):
    return 0, 0


#: (module, attribute, span name, counter) for every wrapped function.
#: A counter maps (args, kwargs, result) to (count, scalar flag).
TARGETS = (
    ("diffeolab.generators", "GeneratorMap.value", "generators.value", _gen_count),
    ("diffeolab.generators", "GeneratorMap.deriv", "generators.deriv", _gen_count),
    ("diffeolab.generators", "GeneratorMap.inverse", "generators.inverse", _gen_count),
    ("diffeolab.words", "sphere_levels", "words.sphere_levels",
     lambda a, k, r: (sum(lev.size for lev in r), 0)),
    ("diffeolab.words", "level_word", "words.level_word", _zero),
    ("diffeolab.action", "word_values", "action.word_values",
     lambda a, k, r: (len(a[0]) * _size(a[1]), 0)),
    ("diffeolab.action", "apply_word", "action.apply_word",
     lambda a, k, r: (len(a[0]), 0)),
    ("diffeolab.action", "c0_dist_to_id", "action.c0_dist_to_id", _zero),
    ("diffeolab.action", "c1_dist_to_id", "action.c1_dist_to_id", _zero),
    ("diffeolab.action", "probe_ball", "action.probe_ball", _zero),
    ("diffeolab.certify", "check_pingpong", "certify.check_pingpong", _zero),
    ("diffeolab.certify", "scan_endpoint_delta", "certify.scan_endpoint_delta", _zero),
    ("diffeolab.certify", "check_endpoint_slopes", "certify.check_endpoint_slopes", _zero),
    ("diffeolab.zassenhaus.flatten", "flatten", "zassenhaus.flatten", _zero),
    ("diffeolab.zassenhaus.flatten", "find_escape_word", "zassenhaus.find_escape_word",
     lambda a, k, r: (len(r), 0)),
    ("diffeolab.zassenhaus.flatten", "choose_case", "zassenhaus.choose_case", _zero),
    ("diffeolab.zassenhaus.transport", "interval_transport_search",
     "zassenhaus.transport", _zero),
    ("diffeolab.zassenhaus.collision", "derivative_collision_search",
     "zassenhaus.collision", _zero),
    ("diffeolab.zassenhaus.wreath", "build_wreath_pair", "zassenhaus.build_wreath_pair", _zero),
    ("diffeolab.zassenhaus.wreath", "wreath_normal_form", "zassenhaus.wreath_normal_form", _zero),
    ("diffeolab.config", "load_config", "cli.load_config", _zero),
    ("diffeolab.cli", "run_experiment", "cli.run_experiment", _zero),
) + tuple(("diffeolab.reports", f"emit_{kind}", "reports.emit", _zero)
          for kind in ("flatten", "transport", "collision", "probe", "growth",
                       "certify", "wreath"))


class Tracer:
    """Install with ``with Tracer() as t:``; call ``take()`` after each operation.

    A span is ``(name, start, end, parent, count, scalar)``; ``parent`` is the
    index of the enclosing span in the same thread's list, or -1.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._restore = []
        self.reset()

    def reset(self):
        self._local = threading.local()
        self._threads: list[tuple[int, list]] = []

    def take(self) -> list[tuple[int, list]]:
        """The spans recorded since the last call, as (thread id, spans)."""
        out = self._threads
        self.reset()
        return out

    def _spans(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans))
            return local.spans, local.stack

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer._spans()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, time.perf_counter(), parent, 0, 0)
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent) + counter(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "diffeolab" or n.startswith("diffeolab."))]
        for mod_name, attr, name, counter in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, counter))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_r) in enumerate(spans)]


def aggregate(threads: list[tuple[int, list]]) -> dict:
    """Per span name: calls, summed self seconds, summed count and scalar calls."""
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0, "scalar_calls": 0})
    for _tid, spans in threads:
        for span, own in zip(spans, self_times(spans)):
            agg = out[span[0]]
            agg["calls"] += 1
            agg["self_s"] += own
            agg["count"] += span[4]
            agg["scalar_calls"] += span[5]
    return out
