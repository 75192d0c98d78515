"""Outside-in tracing: class-level wrappers installed by the benchmark.

Nothing under ``src/`` knows it is being traced.  A :class:`Tracer` swaps
public methods and module functions for wrappers that count calls, time
them and keep spans ``(name, start, end, parent)`` in memory; the spans are
written out once the run is over.  :meth:`Tracer.uninstall` puts every
original back, and a process forked while the tracer is installed (a shard
of the sharded engine) restores the originals before it runs anything, so
only the process that owns the tracer pays for it.

Three probe kinds:

* ``count`` - calls only, optionally the calls made while a timed probe is
  open (``within``), e.g. status-board reads per LB pick;
* ``timed`` - calls plus host seconds of the outermost calls, and a span
  per call unless ``span=False`` (for kernel paths hit ~10^5 times a run);
* ``resumptions`` - for generator functions: the returned generator is
  wrapped so each ``send``/``throw`` from the DES kernel is one timed call.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Probe", "Tracer"]

_ACTIVE: list["Tracer"] = []
_FORK_HOOK = False


def _restore_in_child() -> None:
    while _ACTIVE:
        _ACTIVE.pop()._restore()


class Probe:
    """Per-name tallies: calls, outermost host seconds, nested calls."""

    __slots__ = ("name", "calls", "seconds", "within_calls", "depth")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self.within_calls = 0
        self.depth = 0


class _Resumptions:
    """A generator seen from outside: every resumption is a timed call."""

    __slots__ = ("_send", "_throw", "_enter", "_exit", "__name__")

    def __init__(self, gen, enter, exit_):
        self._send = gen.send
        self._throw = gen.throw
        self._enter = enter
        self._exit = exit_
        self.__name__ = getattr(gen, "__name__", "generator")

    def send(self, value):
        frame = self._enter()
        try:
            return self._send(value)
        finally:
            self._exit(frame)

    def throw(self, *args):
        frame = self._enter()
        try:
            return self._throw(*args)
        finally:
            self._exit(frame)


class Tracer:
    """Counters, timers and spans for wrapped callables."""

    def __init__(self):
        self.probes: dict[str, Probe] = {}
        self.spans: list = []        # [name, start, end, parent index or -1]
        self._stack: list[int] = []  # indices of open spans
        self._patches: list = []     # (namespace, attribute, original)

    def probe(self, name: str) -> Probe:
        p = self.probes.get(name)
        if p is None:
            p = self.probes[name] = Probe(name)
        return p

    # ------------------------------------------------------------ timing
    def _opener(self, probe: Probe, keep_span: bool):
        spans = self.spans
        stack = self._stack

        def enter():
            probe.calls += 1
            probe.depth += 1
            if keep_span:
                index = len(spans)
                spans.append([probe.name, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(index)
            else:
                index = -1
            return index, perf_counter()

        def exit_(frame):
            end = perf_counter()
            index, start = frame
            probe.depth -= 1
            if probe.depth == 0:
                probe.seconds += end - start
            if index >= 0:
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end

        return enter, exit_

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself around a phase of a run."""
        enter, exit_ = self._opener(self.probe(name), True)
        frame = enter()
        try:
            yield
        finally:
            exit_(frame)

    # ------------------------------------------------------- wrapper kinds
    def count(self, owner, attr: str, name: str, within: str | None = None):
        probe = self.probe(name)
        outer = self.probe(within) if within else None

        def wrap(fn):
            if outer is None:
                def counted(*args, **kwargs):
                    probe.calls += 1
                    return fn(*args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    probe.calls += 1
                    if outer.depth:
                        probe.within_calls += 1
                    return fn(*args, **kwargs)
            return counted

        self._patch(owner, attr, wrap)

    def timed(self, owner, attr: str, name: str, span: bool = True):
        enter, exit_ = self._opener(self.probe(name), span)

        def wrap(fn):
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
            return wrapper

        self._patch(owner, attr, wrap)

    def resumptions(self, owner, attr: str, name: str):
        enter, exit_ = self._opener(self.probe(name), True)

        def wrap(fn):
            def generator(*args, **kwargs):
                return _Resumptions(fn(*args, **kwargs), enter, exit_)
            return generator

        self._patch(owner, attr, wrap)

    # ------------------------------------------------------------ patching
    def _patch(self, owner, attr: str, wrap) -> None:
        """Replace ``owner.attr``: on the class that defines it, or, for a
        module function, in every loaded module bound to the same object."""
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{owner.__name__} defines no {attr!r} to trace")
        wrapper = wrap(original)
        if isinstance(owner, type):
            self._set(owner, attr, original, wrapper)
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(module, key, original, wrapper)

    def _set(self, namespace, attr, original, wrapper) -> None:
        setattr(namespace, attr, wrapper)
        self._patches.append((namespace, attr, original))

    def install(self, probes) -> "Tracer":
        """Install ``(kind, owner, attr, name, options)`` probes."""
        global _FORK_HOOK
        if not _FORK_HOOK and hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_restore_in_child)
            _FORK_HOOK = True
        for kind, owner, attr, name, options in probes:
            getattr(self, kind)(owner, attr, name, **options)
        _ACTIVE.append(self)
        return self

    def _restore(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def uninstall(self) -> None:
        self._restore()
        if self in _ACTIVE:
            _ACTIVE.remove(self)

    # ------------------------------------------------------------- output
    def self_seconds(self) -> dict:
        """Per span name: inclusive seconds minus the seconds its child
        spans cover."""
        own = {}
        for name, start, end, _parent in self.spans:
            own[name] = own.get(name, 0.0) + (end - start)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                own[pname] -= end - start
        return own

    def dump(self, path) -> int:
        """Write the spans as gzipped JSON lines; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
        return len(self.spans)
