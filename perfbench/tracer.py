"""Out-of-library tracing: wrap the public functions and methods of every
qgrass module, from outside, and aggregate the spans they produce.

A span is one call of a wrapped function.  Spans nest through a stack, so a
span's self time is its duration minus the time its child spans cover.  To
keep memory flat over millions of calls, spans are folded into aggregates as
they close: per function (calls, total, self) and per caller->callee edge
(calls).  The aggregates stay in memory and are written once, at the end.

Module namespaces that re-bind a name with `from .x import y` are patched
too, so a call through any binding is seen and nested calls nest.  `gf` is
left alone: `linalg` reads its tables directly and its methods are too fine
to wrap, so field arithmetic shows up as self time of its callers.
Generator functions get one span per resumption, so their self time is the
time spent producing values, and one call per generator created.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("linalg", "grassmann", "forms", "maps", "regularity", "irregularity",
           "reconstruction", "harness", "cli")

# functions whose results feed derived counters: name -> classifier of a result
_RESULT_HOOKS = {
    "regularity.associated_systems": ("found", len),
    "irregularity.contains_maximal_regular": ("hits", lambda r: r is not None),
    "irregularity.completion_witness": ("hits", lambda r: r is not None),
}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.enabled = True
        self.stats = {}      # name -> [calls, total_s, child_s]
        self.edges = {}      # (caller or "", callee) -> calls
        self.extra = {}      # name -> {counter: value}
        self._stack = []     # open spans: [name, child_s]
        self._undo = []      # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _close(self, name, t0, frame):
        el = self.clock() - t0
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += el
        rec[2] += frame[1]
        stack = self._stack
        parent = ""
        if stack:
            stack[-1][1] += el
            parent = stack[-1][0]
        key = (parent, name)
        self.edges[key] = self.edges.get(key, 0) + 1

    def _wrap_function(self, name, fn):
        hook = _RESULT_HOOKS.get(name)
        stack = self._stack
        clock = self.clock

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not self.enabled:
                    yield from fn(*args, **kwargs)
                    return
                gen = fn(*args, **kwargs)
                first = True
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        value = next(gen)
                    except StopIteration:
                        stack.pop()
                        self._close_resume(name, t0, frame, first)
                        return
                    except BaseException:
                        stack.pop()
                        self._close_resume(name, t0, frame, first)
                        raise
                    stack.pop()
                    self._close_resume(name, t0, frame, first)
                    first = False
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self._close(name, t0, frame)
            if hook is not None:
                counter, measure = hook
                bucket = self.extra.setdefault(name, {})
                bucket[counter] = bucket.get(counter, 0) + measure(result)
            return result

        return wrapper

    def _close_resume(self, name, t0, frame, first):
        """Close one resumption of a generator; only the first counts as a call."""
        self._close(name, t0, frame)
        if not first:
            self.stats[name][0] -= 1
            key = (self._stack[-1][0] if self._stack else "", name)
            self.edges[key] -= 1

    # -- installation ------------------------------------------------------

    def install(self, package="qgrass"):
        """Patch every public function and method of the traced modules."""
        pkg = importlib.import_module(package)
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = [pkg] + list(mods.values())
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap_function(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for name, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, name, obj, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)

    def _wrap_class(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, classmethod):
                wrapped = classmethod(self._wrap_function(name, member.__func__))
            elif isinstance(member, staticmethod):
                wrapped = staticmethod(self._wrap_function(name, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrap_function(name, member)
            else:
                continue        # properties, constants
            self._set(cls, attr, member, wrapped)

    def _set(self, owner, attr, original, wrapped):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self):
        """Aggregates as plain JSON: per function and per edge."""
        return {
            "functions": {
                name: {"calls": c, "total_s": tot, "self_s": tot - child, **self.extra.get(name, {})}
                for name, (c, tot, child) in sorted(self.stats.items())
            },
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
        }

    def dump(self, path):
        with open(path, "w") as fp:
            json.dump(self.snapshot(), fp)


def merge(snapshots):
    """Sum several snapshots (one per traced process)."""
    funcs, edges = {}, {}
    for snap in snapshots:
        for name, rec in snap["functions"].items():
            acc = funcs.setdefault(name, {})
            for key, val in rec.items():
                acc[key] = acc.get(key, 0) + val
        for a, b, n in snap["edges"]:
            edges[(a, b)] = edges.get((a, b), 0) + n
    return {"functions": dict(sorted(funcs.items())),
            "edges": [[a, b, n] for (a, b), n in sorted(edges.items())]}
