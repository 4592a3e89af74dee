"""Spans around the calls into each reslat module, recorded from outside.

`Tracer.install` wraps the public functions of the traced modules so that a
call from one module into another records a span: name, start, end, parent
span and operation id, timed with `time.perf_counter_ns`. Other modules reach
a function either through a name they imported or through the module object
they imported; the first is replaced by the wrapper, the second by a copy of
the module that holds wrappers. Calls inside a module get no span, so their
time stays with the calling function of the same module and the module's
self time does not change; the functions in OWN_SPANS get spans for their
calls from inside their module too, because a metric names them. The spans
stay in memory (flat arrays) until the run writes them out. A module's self
time is the time of its spans minus the part covered by their child spans.

Two functions stay unwrapped: `core.bits` and `core.mask_of` consume lazy
iterators that the caller builds, so a span around them would time the
caller's work, not theirs. Methods of classes are not wrapped either; their
time counts to the function that calls them.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
import types
from array import array
from collections import Counter

MODULES = (
    "cli", "catalog", "core", "fileformat", "filters", "topology", "pure",
    "gelfand", "laws", "report", "modelgen",
)
NOT_WRAPPED = frozenset({"core.bits", "core.mask_of"})
OWN_SPANS = frozenset({
    "core.validate", "laws.coannihilator_laws",
    "modelgen.enumerate_lattices", "modelgen.residuated_structures",
    "topology.audit_space",
})
# Counters kept at a function boundary: function -> (counter, value of one
# return, or of one yielded item for a generator).
COUNTED = {
    "topology.audit_space": ("topology.closed_sets", lambda space: len(space.closed)),
    "modelgen.residuated_structures": ("modelgen.structures", lambda alg: 1),
}
NO_PARENT = -1


class Tracer:
    """Spans and counts of one traced replay."""

    def __init__(self):
        self.names: list[str] = []  # qualified function names; spans store the index
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.calls: Counter[str] = Counter()  # per function, from anywhere
        self.calls_in: Counter[str] = Counter()  # per module, from other modules
        self.counters: Counter[str] = Counter()
        self.op_id = NO_PARENT
        self._stack = [NO_PARENT]
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, qualname: str, fn, cross: bool):
        if qualname not in self.names:
            self.names.append(qualname)
        name_id = self.names.index(qualname)
        module = qualname.split(".", 1)[0]
        counter, amount = COUNTED.get(qualname, (None, None))
        calls, calls_in, counters, stack = self.calls, self.calls_in, self.counters, self._stack
        name_ids, parents, ops = self.name, self.parent, self.op
        starts, ends, now = self.start, self.end, time.perf_counter_ns

        def open_span() -> int:
            i = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0)
            stack.append(i)
            starts.append(now())
            return i

        def close_span(i: int) -> None:
            ends[i] = now()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the time spent producing each item.
            def resume(it):
                try:
                    while True:
                        i = open_span()
                        try:
                            item = next(it)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            close_span(i)
                        if counter:
                            counters[counter] += amount(item)
                        yield item
                finally:
                    it.close()

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[qualname] += 1
                if cross:
                    calls_in[module] += 1
                return resume(fn(*args, **kwargs))

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[qualname] += 1
                if cross:
                    calls_in[module] += 1
                i = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(i)
                if counter:
                    counters[counter] += amount(result)
                return result

        return wrapper

    def install(self) -> None:
        """Route every call between reslat modules through a span."""
        modules = {short: importlib.import_module(f"reslat.{short}")
                   for short in MODULES}
        cross: dict[object, object] = {}
        own: dict[object, object] = {}
        proxies: dict[object, types.ModuleType] = {}
        for short, mod in modules.items():
            proxy = types.ModuleType(mod.__name__, mod.__doc__)
            proxy.__dict__.update(vars(mod))
            for attr, value in vars(mod).items():
                qualname = f"{short}.{attr}"
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and qualname not in NOT_WRAPPED
                ):
                    cross[value] = self._wrap(qualname, value, cross=True)
                    setattr(proxy, attr, cross[value])
                    if qualname in OWN_SPANS:
                        own[value] = self._wrap(qualname, value, cross=False)
            proxies[mod] = proxy
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.ModuleType) and value in proxies:
                    replacement = proxies[value] if value is not mod else None
                elif not isinstance(value, types.FunctionType):
                    continue
                elif value.__module__ == mod.__name__:
                    replacement = own.get(value)
                else:
                    replacement = cross.get(value)
                if replacement is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, replacement)
        self.entry = proxies[modules["cli"]]

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # --- results ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's own nanoseconds, children excluded."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
        """Per-module self time, calls and share, plus the named counters."""
        own = self.self_times()
        module_ns: Counter[str] = Counter()
        function_ns: Counter[str] = Counter()
        outermost_ns = 0
        for i, name_id in enumerate(self.name):
            qualname = self.names[name_id]
            module = qualname.split(".", 1)[0]
            module_ns[module] += own[i]
            function_ns[qualname] += self.end[i] - self.start[i]
            p = self.parent[i]
            if module != "cli" and (
                p == NO_PARENT or self.names[self.name[p]].startswith("cli.")
            ):
                outermost_ns += self.end[i] - self.start[i]
        total_ns = sum(module_ns.values()) or 1
        out: dict[str, tuple[float, str]] = {}
        for module in MODULES:
            out[f"{module}.self_s"] = (module_ns[module] / 1e9, "s")
            out[f"{module}.calls"] = (self.calls_in[module], "count")
            out[f"{module}.share"] = (module_ns[module] / total_ns, "ratio")
        out["topology.patch_rebuilds"] = (
            self.calls["topology.closed_iff_patch_and_stable"], "count")
        out["topology.closed_sets"] = (self.counters["topology.closed_sets"], "count")
        out["laws.coannihilator_laws_s"] = (
            function_ns["laws.coannihilator_laws"] / 1e9, "s")
        out["core.validate_s"] = (function_ns["core.validate"] / 1e9, "s")
        out["modelgen.enumerate_lattices_s"] = (
            function_ns["modelgen.enumerate_lattices"] / 1e9, "s")
        out["modelgen.enumerate_lattices.calls"] = (
            self.calls["modelgen.enumerate_lattices"], "count")
        out["modelgen.residuated_structures_s"] = (
            function_ns["modelgen.residuated_structures"] / 1e9, "s")
        out["modelgen.structures"] = (self.counters["modelgen.structures"], "count")
        out["trace.coverage"] = (outermost_ns / 1e9 / untraced_s, "ratio")
        out["trace.overhead_s"] = (traced_s - untraced_s, "s")
        out["trace.spans"] = (len(self.name), "count")
        return out

    def write(self, path: str, op_names: list[str]) -> None:
        """All spans, column-wise, as gzipped JSON."""
        data = {
            "ops": op_names,
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(data, fh)
