"""Span tracing of qcycle's layers, installed from outside the package.

`Tracer.install()` replaces each public function in `TRACED` with a wrapper
that records a span (name, start, end, parent span, item id).  Module-level
functions are replaced in every `qcycle.*` namespace that holds them, so both
internal calls (`build_solution` -> `gd_map`, looked up as module globals at
call time) and names brought in by `from .x import y` (as `qcycle.cli` does)
go through the wrapper.  Methods are replaced on their class.
`Tracer.uninstall()` puts every original back.

Spans are kept in memory; `Tracer.dump()` writes them out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, qualified name) of every wrapped public function, by layer.
TRACED = (
    ("cli", "main"),
    ("tensor", "QCycleStructure.from_payload"),
    ("tensor", "is_coalgebra_morphism"),
    ("tensor", "extend_from_level1"),
    ("tensor", "CoeffTensor.scaled_integers"),
    ("standard", "build_standard_cycle"),
    ("standard", "table_slices"),
    ("standard", "column_series"),
    ("families", "build_nonroot_family"),
    ("solution", "check_braid_reduced"),
    ("solution", "check_braid_full"),
    ("solution", "build_solution"),
    ("solution", "gp_map"),
    ("solution", "gd_map"),
    ("solution", "superscript_map"),
    ("solution", "LinearMap2.inverse"),
    ("solution", "check_braid_on_map"),
    ("solution", "is_coalgebra_endomorphism"),
    ("solution", "LinearMap2.determinant"),
    ("solution", "LinearMap2.compose"),
    ("solution", "LinearMap2.is_identity"),
    ("operators", "build_context"),
    ("operators", "identity_suite"),
    ("operators", "OperatorContext.partial_x"),
    ("operators", "OperatorContext.partial_y"),
    ("operators", "OperatorContext.partial_global"),
    ("series", "Series1.__mul__"),
    ("series", "Series2.__mul__"),
    ("series", "compose"),
    ("series", "substitute_y"),
    ("series", "compositional_inverse"),
    ("series", "binomial_series"),
    ("series", "divide_exact"),
)

MODULES = ("cli", "tensor", "standard", "families", "solution", "operators", "series")

# Functions whose argument or result the per-layer metrics need after the
# item: the scanned tensor (repeat ratio) and the solution map (bit length).
CAPTURE_ARG = {"tensor.is_coalgebra_morphism"}
CAPTURE_RESULT = {"solution.build_solution"}


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """Records spans of the functions in `TRACED` while installed."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, item id)
        self.captured = defaultdict(list)   # (name, item id) -> objects
        self.item = None
        self._stack = []
        self._restore = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [m.__dict__ for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "qcycle" or name.startswith("qcycle."))]
        for module, qualname in TRACED:
            owner = sys.modules[f"qcycle.{module}"]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            func = raw.__func__ if is_classmethod else raw
            wrapper = self._wrap(span_name(module, qualname), func)
            if outer:
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            else:
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is func:
                            self._restore.append((ns, key, value))
                            ns[key] = wrapper

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore = []

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        capture_arg = name in CAPTURE_ARG
        capture_result = name in CAPTURE_RESULT

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            if capture_arg:
                self.captured[name, self.item].append(args[0])
            if capture_result:
                self.captured[name, self.item].append(result)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def per_item(self) -> dict:
        """{item id: {span name: [calls, self seconds]}} over recorded spans.

        Self time is a span's duration minus the durations of its direct
        children, which are nested inside it and run one after another.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for index, (name, start, end, parent, item) in enumerate(self.spans):
            entry = out[item][name]
            entry[0] += 1
            entry[1] += (end - start) - child[index]
        return out

    def take_captured(self, name: str, item) -> list:
        """Remove and return the objects captured for `name` in `item`."""
        return self.captured.pop((name, item), [])

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, item."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
