"""Span tracing of lcklab's layers from outside the library.

A `Tracer` wraps the public functions of each layer module, rebinding
every name in every loaded `lcklab` module that refers to the original
object.  `suites` and `foliations` import with `from .x import y`, so a
call through an unpatched binding would escape the trace.  Each call
records one span (name, parent, start, end) in memory; counts, inclusive
times and self times are derived from the spans after the run.

A layer is a module.  A layer's self time is the time spent inside its
wrapped functions and not inside another wrapped function, so work done
by unwrapped helpers (TangentVector arithmetic, a chart's metric closure)
is charged to the wrapped caller.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("charts", "lck", "semieuclid", "sampling", "foliations", "cr",
          "models", "suites", "report")

# Methods that carry a layer's cost but are not module-level functions.
# MetricChart.hermitian is the only caller of a chart's metric_eval.
METHODS = {
    "charts.metric_eval": ("charts", "MetricChart", "hermitian"),
    "charts.real_form": ("charts", "MetricChart", "real_form"),
    "semieuclid.form_validate": ("semieuclid", "SemiEuclideanForm", "__post_init__"),
}

# Hot one-line primitives called inside tight loops (the Hopf rejection
# loop evaluates b_form once per candidate); a span on each would
# dominate what it measures.
UNTRACED = frozenset({"models.b_form", "models.eps_signs", "charts.fd_step"})

CHART_BUILDERS = ("models.hopf_chart", "models.tricerri_chart", "models.flat_chart")

# sample_hopf draws each rejection candidate with this helper.
CANDIDATE_DRAW = ("sampling", "_complex_normal")


def layer_functions(modules: dict) -> dict:
    """Map span name -> (owner, attribute) for every traced callable."""
    out = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in UNTRACED:
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[name] = (mod, attr)
    for name, (layer, cls, attr) in METHODS.items():
        out[name] = (getattr(modules[layer], cls), attr)
    return out


@dataclass
class Spans:
    """Spans of one traced run, in creation (pre-)order."""

    names: list            # span name per name id
    name_id: list
    parent: list           # parent span index, -1 for a root
    start: list
    end: list
    candidate_draws: int

    def __len__(self) -> int:
        return len(self.name_id)

    def derive(self) -> dict:
        """Counts, inclusive seconds, per-layer self seconds and the
        candidate draws of sample_hopf.

        Inclusive time sums only the outermost call of each name, so
        nested and recursive calls count once.
        """
        n = len(self)
        calls = Counter()
        inclusive = Counter()
        child_sum = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_sum[p] += self.end[i] - self.start[i]
        self_s = Counter()
        stack: list[int] = []
        open_names = Counter()
        for i in range(n):
            p = self.parent[i]
            while stack and stack[-1] != p:
                open_names[self.name_id[stack.pop()]] -= 1
            nid = self.name_id[i]
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            if open_names[nid] == 0:
                inclusive[name] += dur
            self_s[name.split(".", 1)[0]] += dur - child_sum[i]
            stack.append(i)
            open_names[nid] += 1
        return {"calls": calls, "inclusive_s": inclusive, "self_s": self_s,
                "candidate_draws": self.candidate_draws}

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


class Tracer:
    """Context manager that patches lcklab's layers and records spans.

    Suite point functions are traced as `suites.<suite-name>`.  On exit
    every patched binding is restored, also after an exception.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_id: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = []
        self._draws = 0
        self._restore: list[tuple] = []

    def spans(self) -> Spans:
        return Spans(self.names, self._name_id, self._parent, self._start,
                     self._end, self._draws)

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        name_id, parent, start, end = self._name_id, self._parent, self._start, self._end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_draw(self, fn):
        hopf_id = self._nid("sampling.sample_hopf")
        name_id, stack = self._name_id, self._stack

        def counted(*args, **kwargs):
            if stack and name_id[stack[-1]] == hopf_id:
                self._draws += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._set(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        import lcklab  # noqa: F401  (loads every layer module)
        modules = {layer: sys.modules[f"lcklab.{layer}"] for layer in LAYERS}
        loaded = [m for k, m in sys.modules.items()
                  if m is not None and (k == "lcklab" or k.startswith("lcklab."))]
        try:
            for name, (owner, attr) in layer_functions(modules).items():
                original = owner.__dict__[attr]
                wrapped = self._wrap(name, original)
                if inspect.ismodule(owner):
                    self._rebind(loaded, original, wrapped)
                else:
                    self._set(owner, attr, wrapped)
            mod, attr = CANDIDATE_DRAW
            sampling = modules[mod]
            if attr in vars(sampling):
                self._set(sampling, attr, self._wrap_draw(vars(sampling)[attr]))
            for suite in modules["suites"].SUITES:
                wrapped = self._wrap(f"suites.{suite.name}", suite.point_fn)
                self._restore.append((suite, "point_fn", suite.point_fn))
                object.__setattr__(suite, "point_fn", wrapped)
        except BaseException:
            self._undo()
            raise
        return self

    def _undo(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if inspect.ismodule(owner) or inspect.isclass(owner):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._undo()
