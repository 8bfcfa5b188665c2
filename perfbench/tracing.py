"""Spans and observers around cmpslab's public functions, installed from
outside the package.

A target such as ``"dense.exact_sre"`` or ``"mps.MpsState.to_statevector"``
is wrapped once, and every binding of the original object in a ``cmpslab``
module namespace is pointed at the wrapper. That covers callers that look the
name up in its own module and callers that bound it with ``from .x import f``
(``brickwork``, ``cooling``, ``ensembles``, ``dense``, ``mps``, ``tableau``).
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cmpslab" or name.startswith("cmpslab."))]


def _resolve(target):
    """(owner, attribute, original) for 'module.func' or 'module.Class.method'."""
    import cmpslab

    parts = target.split(".")
    owner = getattr(cmpslab, parts[0])
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1], getattr(owner, parts[-1])


def rebind(target, make_wrapper):
    """Replace `target` everywhere it is bound by make_wrapper(original)."""
    owner, attr, orig = _resolve(target)
    wrapper = make_wrapper(orig)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return orig
    for mod in _modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
    return orig


class Observer:
    """Hands (args, kwargs, result) of each call of a target to a callback
    while `active`; used to keep outputs that a workload's checks need."""

    def __init__(self):
        self.active = True

    def watch(self, target, callback):
        def make(orig):
            def observed(*args, **kwargs):
                out = orig(*args, **kwargs)
                if self.active:
                    callback(args, kwargs, out)
                return out

            observed.__wrapped__ = orig
            return observed

        rebind(target, make)


class Tracer:
    """In-memory span recorder with per-name call counts and self times.

    Each span is (name id, start, end, parent span id or -1). Self time is
    a span's duration minus the durations of its direct children, so the
    self times of all spans add up to the time covered by top-level spans.
    """

    clock = staticmethod(time.perf_counter)

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls = {}
        self.self_s = {}
        self.distinct = {}
        self.active = True
        self._stack = []  # [span id, child time]

    def install(self, targets, distinct=()):
        """Wrap every target; for names in `distinct`, also count distinct
        bound-argument tuples."""
        for target in targets:
            self.calls[target] = 0
            self.self_s[target] = 0.0
            if target in distinct:
                self.distinct[target] = set()
            rebind(target, lambda orig, t=target: self._wrap(t, orig))

    def _wrap(self, target, orig):
        name_id = len(self.names)
        self.names.append(target)
        seen = self.distinct.get(target)
        sig = inspect.signature(orig) if seen is not None else None
        clock = self.clock
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            if seen is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                seen.add(tuple(bound.arguments.values()))
            span = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.start[span] = t0
                self.end[span] = t1
                self.calls[target] += 1
                self.self_s[target] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = orig
        return traced

    def top_level_seconds(self, t_from, t_to):
        """Total duration of top-level spans that lie inside [t_from, t_to]."""
        total = 0.0
        for s, e, p in zip(self.start, self.end, self.parent):
            if p == -1 and s >= t_from and e <= t_to:
                total += e - s
        return total

    def write(self, path):
        """Write every span as JSON lines (gzip): name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            for i, (n, s, e, p) in enumerate(zip(self.name_id, self.start, self.end, self.parent)):
                fh.write(json.dumps({"id": i, "name": self.names[n], "start": s, "end": e,
                                     "parent": p}) + "\n")
