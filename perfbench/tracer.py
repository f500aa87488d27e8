"""Per-layer tracing of schubert_atlas from outside the package.

``Tracer.install`` replaces functions of the layer modules by wrappers in
every namespace that binds them (each module's globals, the package
``__init__`` and module-level dicts such as ``cli._CHECKERS``), then checks
that no reference to an unwrapped original is left.  Two sets of functions
are wrapped:

* the named functions in ``NAMED``, reported one by one;
* every other layer function bound into a *different* layer's namespace
  (``from .weyl import ...``), so that time spent on the far side of a layer
  boundary is charged to the layer that does it.

Each call records a span (function, parent span, request, start, end) in
flat arrays; the spans are written out and reduced to self times at the end.
A span's self time is its duration minus that of its direct children, so the
self times of one request sum exactly to its root ``cli.main`` span.
Generator functions get one span per resumption, parented to whichever span
resumed them, so a generator is charged only for the work it does itself.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import inspect
import json
import sys
import time
import types
from array import array
from typing import Dict, List, Tuple

PACKAGE = "schubert_atlas"
LAYERS = ("cli", "rootdata", "weyl", "schubert", "exactlinalg", "oracle")

NAMED = {
    "cli": ("main",),
    "rootdata": ("build_root_datum",),
    "weyl": (
        "enumerate_coset_reps",
        "canonical_reduced_word",
        "element_from_word",
        "inversion_sequence",
        "rightmost_distance",
        "iter_reduced_words",
        "support",
    ),
    "schubert": (
        "classify",
        "cover_coroots",
        "build_B_wB",
        "p_adapt",
        "gorenstein_fano_report",
        "csv_row",
        "report_to_dict",
        "canonical_json",
    ),
    "exactlinalg": ("inverse_rational", "invert_unimodular", "smith_normal_form", "det"),
    "oracle": (
        "check_order_reversal",
        "check_coxeter_deletion",
        "check_rightmost_indecomposable",
    ),
}


class Tracer:
    def __init__(self):
        self.fn_names: List[str] = []  # "layer.function"
        self.fn_layers: List[str] = []
        self.calls: List[int] = []
        self.span_fn = array("H")
        self.span_parent = array("l")
        self.span_request = array("L")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.request = [0]
        # distinct (request, w.matrix) arguments of canonical_reduced_word;
        # each request builds its own datum and cache, so a matrix seen in
        # two requests counts twice
        self.crw_args: set = set()

    # -- wrapping ----------------------------------------------------------

    def _register(self, layer: str, name: str) -> int:
        self.fn_names.append(f"{layer}.{name}")
        self.fn_layers.append(layer)
        self.calls.append(0)
        return len(self.fn_names) - 1

    def _wrap(self, fid: int, fn):
        calls, stack, request = self.calls, self.stack, self.request
        span_fn, parent, req = self.span_fn, self.span_parent, self.span_request
        start, end, clock = self.span_start, self.span_end, time.perf_counter

        def open_span() -> int:
            sid = len(start)
            span_fn.append(fid)
            parent.append(stack[-1])
            req.append(request[0])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            return sid

        def close_span(sid: int) -> None:
            end[sid] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            def resumptions(gen):
                try:
                    while True:
                        sid = open_span()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            close_span(sid)
                        yield item
                finally:
                    gen.close()

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[fid] += 1
                return resumptions(fn(*args, **kwargs))

            return wrapper

        note = None
        if self.fn_names[fid] == "weyl.canonical_reduced_word":
            seen = self.crw_args

            def note(args):
                seen.add((request[0], args[0].matrix))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if note is not None:
                note(args)
            sid = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(sid)

        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        layer_of = {m.__name__: layer for layer, m in modules.items()}
        named = {getattr(modules[layer], name): (layer, name)
                 for layer, names in NAMED.items() for name in names}
        boundary = {}
        for mod in modules.values():
            for value in vars(mod).values():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ in layer_of
                    and value.__module__ != mod.__name__
                    and value not in named
                ):
                    boundary[value] = (layer_of[value.__module__], value.__name__)
        wrappers = {fn: self._wrap(self._register(layer, name), fn)
                    for fn, (layer, name) in {**named, **boundary}.items()}

        def rebind(mapping: dict, home: str) -> None:
            for key, value in list(mapping.items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    if value in named or value.__module__ != home:
                        mapping[key] = wrappers[value]

        for ns in [vars(pkg)] + [vars(m) for m in modules.values()]:
            rebind(ns, ns["__name__"])
            for key, value in list(ns.items()):
                if isinstance(value, dict) and not key.startswith("__"):
                    rebind(value, ns["__name__"])
        self._check_no_escape(wrappers, named, boundary)

    @staticmethod
    def _check_no_escape(wrappers: dict, named: dict, boundary: dict) -> None:
        """Fail unless every remaining reference to an original function is
        the wrapper's own (closure cell or ``__wrapped__``), or, for a
        boundary function, the namespace of its own module."""
        gc.collect()
        allowed = {id(w.__dict__) for w in wrappers.values()}
        allowed.update((id(wrappers), id(named), id(boundary)))
        for fn in wrappers:
            for ref in gc.get_referrers(fn):
                if isinstance(ref, (types.CellType, types.FrameType)) or id(ref) in allowed:
                    continue
                if fn in boundary and ref is vars(sys.modules[fn.__module__]):
                    continue
                raise RuntimeError(
                    f"{fn.__module__}.{fn.__qualname__} is still reachable "
                    f"unwrapped from a {type(ref).__name__}"
                )

    # -- requests ----------------------------------------------------------

    def begin_request(self, request: int) -> None:
        self.request[0] = request

    # -- results -----------------------------------------------------------

    def self_times(self) -> Tuple[List[float], float]:
        """Per-function self seconds and the summed root-span seconds."""
        n = len(self.span_start)
        start, end, parent, fn = self.span_start, self.span_end, self.span_parent, self.span_fn
        children = [0.0] * n
        root_total = 0.0
        for sid in range(n):
            dur = end[sid] - start[sid]
            p = parent[sid]
            if p >= 0:
                children[p] += dur
            else:
                root_total += dur
        self_s = [0.0] * len(self.fn_names)
        for sid in range(n):
            self_s[fn[sid]] += end[sid] - start[sid] - children[sid]
        return self_s, root_total

    def summary(self, rows: int, untraced_wall_s: float, traced_wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of the traced pass, keyed by metric name."""
        self_s, root_total = self.self_times()
        if abs(sum(self_s) - root_total) > 1e-9 * max(root_total, 1.0):
            raise RuntimeError(f"self times sum to {sum(self_s)}, root spans to {root_total}")
        index = {name: i for i, name in enumerate(self.fn_names)}
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for s, owner in zip(self_s, self.fn_layers) if owner == layer
            )
        for layer, names in NAMED.items():
            for name in names:
                i = index[f"{layer}.{name}"]
                out[f"{layer}.{name}.self_s"] = self_s[i]
                out[f"{layer}.{name}.calls"] = self.calls[i]
        crw_calls = out["weyl.canonical_reduced_word.calls"]
        out["weyl.element_from_word.calls_per_row"] = out["weyl.element_from_word.calls"] / rows
        out["weyl.canonical_reduced_word.distinct_ratio"] = (
            len(self.crw_args) / crw_calls if crw_calls else 0.0
        )
        out["weyl.canonical_reduced_word.distinct"] = len(self.crw_args)
        out["exactlinalg.invert_unimodular.calls_per_row"] = (
            out["exactlinalg.invert_unimodular.calls"] / rows
        )
        out["output_rows"] = rows
        out["trace.spans"] = len(self.span_start)
        out["trace.wall_s"] = root_total
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
        return out

    def write_spans(self, path: str, env: dict) -> None:
        """Spans as gzip JSON lines: a header, then one line per span
        ``[function, parent, request, start, end]`` with indices into the
        header's ``functions``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"env": env, "functions": self.fn_names}) + "\n")
            for row in zip(self.span_fn, self.span_parent, self.span_request,
                           self.span_start, self.span_end):
                fh.write(json.dumps(row) + "\n")
