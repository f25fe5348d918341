"""Spans around the public functions of each pentacheck layer.

`Tracer.install()` replaces every public function and method of the layer
modules with a wrapper that records a span [name, start_ns, end_ns, parent],
at every place the function is bound: the defining module and each module
that imported it by name (`singularity` binds `resultant`, `checks` and
`cli` bind `build_arrangement`).  `uninstall()` puts the originals back, so
untraced operations run unmodified code.  Spans stay in memory until the
benchmark writes them out.

A span is named `<layer>.<qualified name>`; an alias such as `__rmul__ =
__mul__` shares its original's name.  `checks.run_check` spans are named
`check.<check_id>`.  Self time is a span's duration minus the durations of
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "pentacheck"
LAYERS = (
    "field",
    "multipoly",
    "groebner",
    "series",
    "arrangement",
    "singularity",
    "checks",
    "cli",
)

# Arithmetic operators count as public: they are how callers use the classes.
OPERATORS = frozenset(
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ "
    "__rtruediv__ __neg__ __pow__".split()
)

# Spans the per-layer metrics are computed from.  A name the program no
# longer defines is reported as missing, never dropped silently.
REQUIRED = (
    "field.AlgebraicNumber.__mul__",
    "field.AlgebraicNumber.inverse",
    "field.GaloisElement.apply",
    "multipoly.MultiPoly.__mul__",
    "multipoly.MultiPoly.substitute",
    "multipoly.resultant",
    "groebner.buchberger",
    "groebner.normal_form",
    "series.series_substitute",
    "arrangement.build_arrangement",
    "arrangement.incidence_automorphisms",
    "singularity.milnor_number_plane",
    "checks.run_check",
    "cli.main",
)


def _check_span_name(args, kwargs) -> str:
    check = args[0] if args else kwargs["check"]
    return f"check.{check.check_id}"


class Tracer:
    def __init__(self):
        self.modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        self.spans = []
        self.current = -1  # index of the open span, -1 at top level
        self.basis_lengths = []  # len() of each buchberger result
        self._restore = []
        self.found = set()

    # -- installing wrappers -------------------------------------------

    def _targets(self):
        """(layer, owner, attribute, raw value, function) for each public callable."""
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield layer, mod, name, obj, obj
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in OPERATORS:
                            continue
                        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                        if inspect.isfunction(fn):
                            yield layer, obj, attr, raw, fn

    def _wrap(self, span_name, fn):
        tracer = self
        spans = self.spans
        clock = time.perf_counter_ns
        namer = _check_span_name if span_name == "checks.run_check" else None
        keep_len = span_name == "groebner.buchberger"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer else span_name
            parent = tracer.current
            span = [name, clock(), 0, parent]
            tracer.current = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer.current = parent
            if keep_len:
                tracer.basis_lengths.append(len(result))
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            return
        sites = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for layer, owner, attr, raw, fn in self._targets():
            span_name = f"{layer}.{fn.__qualname__}"
            self.found.add(span_name)
            wrapped = self._wrap(span_name, fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is fn:
                        self._restore.append((site, name, value))
                        setattr(site, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    def missing(self) -> list:
        return [name for name in REQUIRED if name not in self.found]

    def take(self):
        """Spans and buchberger basis lengths recorded since the last take."""
        spans, lengths = self.spans[:], self.basis_lengths[:]
        self.spans.clear()
        self.basis_lengths.clear()
        self.current = -1
        return spans, lengths


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "checks" if head == "check" else head


class SpanStats:
    """Counts, inclusive times and self times accumulated over spans."""

    def __init__(self, inclusive_names=()):
        self.calls = {}
        self.self_ns = {}
        self.inclusive_ns = dict.fromkeys(inclusive_names, 0)
        self.basis_len_sum = 0

    def add(self, spans, basis_lengths=()) -> None:
        n = len(spans)
        child_ns = [0] * n
        self_ns = self.self_ns
        for i in range(n - 1, -1, -1):
            name, start, end, parent = spans[i]
            dur = end - start
            if parent >= 0:
                child_ns[parent] += dur
            layer = layer_of(name)
            self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns[i]
        # inclusive time counts only the outermost span of a recursive name;
        # open[i] holds the tracked names open around and including span i
        inclusive = self.inclusive_ns
        open_ = [()] * n
        calls = self.calls
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            around = open_[parent] if parent >= 0 else ()
            if name in inclusive:
                if name not in around:
                    inclusive[name] += end - start
                around = around + (name,)
            open_[i] = around
        self.basis_len_sum += sum(basis_lengths)


def write_spans(path: str, spans) -> None:
    """Tab-separated: id, name, start_ns, end_ns, parent id (-1 for none)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")
