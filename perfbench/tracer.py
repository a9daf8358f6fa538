"""In-memory span recorder that wraps engine functions from outside.

The engine has no tracing of its own, so spans are recorded by replacing
functions with timing wrappers. Engine modules bind names with
``from .x import f``, so a function is replaced in every loaded module that
holds it, not only where it is defined; methods are replaced on their
class. ``uninstall`` puts every original back.

A span has a name, start and end (perf_counter ns), the index of the
enclosing span (-1 at the top) and the workload item it ran for, so spans
of one item share that id. Spans are kept in five parallel int64 arrays,
about 40 bytes a span, until ``write``.
"""

import functools
import gzip
import json
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._item = array("q")
        self.counters = {}
        self.item = -1
        self._stack = []
        self._patches = []

    def __len__(self):
        return len(self._name)

    def columns(self):
        """(name id, start ns, end ns, parent index, item) arrays."""
        return self._name, self._start, self._end, self._parent, self._item

    # -- counters ----------------------------------------------------------

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrapping ----------------------------------------------------------

    def wrapper(self, name, fn, before=None, after=None):
        """A function that records one span named `name` around each call
        to `fn`. `before(tracer, args)` runs before the span opens and
        `after(tracer, args, result)` after it closes, so the counters they
        keep are charged to the caller's self time, not to the span."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends = self._name, self._start, self._end
        parents, items = self._parent, self._item
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def patch_function(self, module, attr, name, before=None, after=None):
        """Wrap `module.attr` and every other binding of the same function
        in the loaded modules of the same package."""
        original = getattr(module, attr)
        traced = self.wrapper(name, original, before, after)
        package = module.__name__.split(".")[0]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrapper(name, original, before, after))
        self._patches.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children.
        Spans nest strictly on one thread, so children never overlap."""
        dur = [e - s for s, e in zip(self._start, self._end)]
        own = list(dur)
        for i, p in enumerate(self._parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path):
        """Write the spans as gzipped JSON lines: a header naming the fields
        and the span names, then one [name, start, end, parent, item] a
        line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent", "item"]}) + "\n")
            for row in zip(*self.columns()):
                fh.write(json.dumps(row) + "\n")
