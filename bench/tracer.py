"""Span tracing of the cardstar modules from outside the package.

`Tracer.install` replaces every public function and public method of the
seven modules with a wrapper that records a span (name, layer, start, end,
parent) and, where the call handles points or series, its size.  Nothing in
the package itself changes, and `uninstall` puts the originals back.  Spans
stay in memory; `summarize` turns a range of them into the per-layer metrics
and `write_spans` writes them out at the end of a run.

Layers are the modules.  Two are split further:

  * domains.polygon   methods called on a `GeneratorImageRegion` (winding test)
  * domains.analytic  every other region method and module helper
  * domains.construct region constructors, `make_domain` and `janowski_disk`
  * cardioid.scalar   `contains` / `contains_implicit` and what they call
  * cardioid          the batched functions (`preimage_margin`, `eval_phi`, ...)
"""

from __future__ import annotations

import dataclasses
import inspect
from time import perf_counter

import numpy as np

MODULES = ("series", "cardioid", "domains", "functions", "radii", "verify", "cli")

_MEMBERSHIP = ("margin", "contains", "contains_all", "worst_point", "boundary_gap")
_CONSTRUCT = ("make_domain", "janowski_disk")
_SCALAR = ("contains", "contains_implicit")
_RADIUS_SEARCHES = ("subordination_radius", "disk_family_radius")

# per-layer metrics that are exact counts and must repeat between two traced runs
COUNT_METRICS = (
    "domains.polygon.points", "domains.analytic.points", "cardioid.points",
    "cardioid.scalar_calls", "verify.calls", "verify.containment_evals",
    "verify.radius_probes", "functions.points", "radii.calls", "series.calls",
    "series.coeffs", "cli.bytes_out",
)


def _size_of_points(args, kwargs, out):
    return int(np.size(args[0]))


def _size_of_method_points(args, kwargs, out):
    return int(np.size(args[1]))


def _series_order(obj) -> int:
    coeffs = getattr(obj, "coeffs", None)
    return len(coeffs) if isinstance(coeffs, tuple) else 0


def _size_of_series(args, kwargs, out):
    return max([_series_order(a) for a in args] + [_series_order(v) for v in kwargs.values()]
               + [_series_order(out)])


class Tracer:
    """Records spans around calls into the cardstar modules."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in MODULES]
        self._polygon_cls = getattr(package.domains, "GeneratorImageRegion", None)
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    # -- recording -----------------------------------------------------

    def clear(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.sizes: list[int] = []
        self._stack: list[int] = []

    def mark(self) -> int:
        """Index of the next span; a pair of marks delimits a phase."""
        return len(self.names)

    def _wrap(self, fn, name: str, layer_of, size_of=None, result_hook=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.layers.append(layer_of(args, parent))
            tracer.parents.append(parent)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.sizes.append(0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.starts[i] = t0
                tracer.ends[i] = t1
            if size_of is not None:
                tracer.sizes[i] = size_of(args, kwargs, out)
            if result_hook is not None:
                out = result_hook(out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.bench_original = fn
        return traced

    # -- layer rules ---------------------------------------------------

    def _layer_rule(self, module: str, owner, attr: str):
        if module == "domains":
            if attr == "__init__" or attr in _CONSTRUCT:
                return lambda args, parent: "domains.construct"
            polygon = self._polygon_cls
            if owner is not None and polygon is not None:
                return lambda args, parent: ("domains.polygon" if isinstance(args[0], polygon)
                                             else "domains.analytic")
            return lambda args, parent: "domains.analytic"
        if module == "cardioid":
            if attr in _SCALAR:
                return lambda args, parent: "cardioid.scalar"
            return lambda args, parent: ("cardioid.scalar"
                                         if parent >= 0 and self.layers[parent] == "cardioid.scalar"
                                         else "cardioid")
        return lambda args, parent: module

    def _size_rule(self, module: str, owner, attr: str, fn):
        if module == "domains" and owner is not None and attr in _MEMBERSHIP:
            return _size_of_method_points
        if module == "cardioid" and attr == "preimage_margin":
            return _size_of_points
        if module == "functions" and owner is None:
            params = list(inspect.signature(fn).parameters)
            if params and params[0] == "z":
                return _size_of_points
        if module == "series":
            return _size_of_series
        return None

    def _traced_quotient(self, fn):
        """Quotients handed out by functions.generator/extremal are evaluated
        later by other layers; wrap them so their evaluations are spans too."""
        if getattr(fn, "bench_original", None) is not None or not callable(fn):
            return fn
        return self._wrap(fn, "functions.quotient", lambda args, parent: "functions",
                          _size_of_points)

    def _result_hook(self, module: str, attr: str):
        if module != "functions":
            return None
        if attr == "generator":
            return self._traced_quotient
        if attr == "extremal":
            return lambda spec: dataclasses.replace(spec, w_of=self._traced_quotient(spec.w_of))
        return None

    # -- installation --------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for mod in self.modules:
            module = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(module, obj)
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(
                        obj, f"{module}.{attr}", self._layer_rule(module, None, attr),
                        self._size_rule(module, None, attr, obj),
                        self._result_hook(module, attr))
        # rebind every reference, including names imported into other modules
        for mod in self.modules + [self.package]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(wrapper, "bench_original", None) is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _install_class(self, module: str, cls):
        is_domain = module == "domains" and issubclass(cls, self.package.domains.Domain)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (is_domain and attr == "__init__"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            name = f"{module}.{cls.__name__}.{attr}"
            wrapper = self._wrap(fn, name, self._layer_rule(module, cls, attr),
                                 self._size_rule(module, cls, attr, fn))
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- summaries -----------------------------------------------------

    def summarize(self, ranges: list[tuple[int, int]], construct_ranges: list[tuple[int, int]]
                  ) -> dict[str, float]:
        """Per-layer metrics over the spans in `ranges`; `domains.construct_s`
        is taken over `construct_ranges` instead."""
        n = len(self.names)
        dur = np.asarray(self.ends, dtype=float) - np.asarray(self.starts, dtype=float)
        parent = np.asarray(self.parents, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        sizes = np.asarray(self.sizes, dtype=np.int64)
        layers = self.layers

        sel = np.zeros(n, dtype=bool)
        for a, b in ranges:
            sel[a:b] = True
        csel = np.zeros(n, dtype=bool)
        for a, b in construct_ranges:
            csel[a:b] = True

        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        points: dict[str, int] = {}
        point_self: dict[str, float] = {}
        construct_s = 0.0
        evals = probes = outer_scalar = 0
        for i in np.flatnonzero(sel | csel):
            layer = layers[i]
            p = parent[i]
            parent_layer = layers[p] if p >= 0 else ""
            if csel[i] and layer == "domains.construct" and parent_layer != layer:
                construct_s += dur[i]
            if not sel[i]:
                continue
            self_s[layer] = self_s.get(layer, 0.0) + self_time[i]
            calls[layer] = calls.get(layer, 0) + 1
            if layer == "cardioid.scalar" and parent_layer != layer:
                outer_scalar += 1
            if sizes[i] > 0:
                point_self[layer] = point_self.get(layer, 0.0) + self_time[i]
                if not (parent_layer == layer and sizes[p] > 0):
                    points[layer] = points.get(layer, 0) + int(sizes[i])
            if (layer in ("domains.polygon", "domains.analytic")
                    and self.names[i].rsplit(".", 1)[-1] in _MEMBERSHIP
                    and not parent_layer.startswith("domains.")):
                caller = self._nearest(p, "verify")
                if caller >= 0:
                    evals += 1
                    if self.names[caller].rsplit(".", 1)[-1] in _RADIUS_SEARCHES:
                        probes += 1

        def rate(layer):
            t = point_self.get(layer, 0.0)
            return points.get(layer, 0) / t if t > 0 else 0.0

        metrics = {
            "domains.polygon.self_s": self_s.get("domains.polygon", 0.0),
            "domains.polygon.points": points.get("domains.polygon", 0),
            "domains.polygon.points_per_s": rate("domains.polygon"),
            "domains.analytic.self_s": self_s.get("domains.analytic", 0.0),
            "domains.analytic.points": points.get("domains.analytic", 0),
            "domains.analytic.points_per_s": rate("domains.analytic"),
            "domains.construct_s": float(construct_s),
            "cardioid.self_s": self_s.get("cardioid", 0.0),
            "cardioid.points": points.get("cardioid", 0),
            "cardioid.points_per_s": rate("cardioid"),
            "cardioid.scalar_calls": outer_scalar,
            "cardioid.scalar_self_s": self_s.get("cardioid.scalar", 0.0),
            "verify.self_s": self_s.get("verify", 0.0),
            "verify.calls": calls.get("verify", 0),
            "verify.containment_evals": evals,
            "verify.radius_probes": probes,
            "functions.self_s": self_s.get("functions", 0.0),
            "functions.points": points.get("functions", 0),
            "radii.self_s": self_s.get("radii", 0.0),
            "radii.calls": calls.get("radii", 0),
            "series.self_s": self_s.get("series", 0.0),
            "series.calls": calls.get("series", 0),
            "series.coeffs": points.get("series", 0),
            "cli.self_s": self_s.get("cli", 0.0),
            "cli.bytes_out": 0,  # set by the caller, which captures the CLI output
        }
        return {k: (int(v) if isinstance(v, (int, np.integer)) else float(v))
                for k, v in metrics.items()}

    def _nearest(self, i: int, layer: str) -> int:
        while i >= 0 and self.layers[i] != layer:
            i = self.parents[i]
        return i

    def write_spans(self, path, ranges: list[tuple[int, int]]):
        """CSV of the spans in `ranges`: id, parent, layer, name, start, end, size."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,layer,name,start_s,end_s,size\n")
            for a, b in ranges:
                for i in range(a, b):
                    fh.write(f"{i},{self.parents[i]},{self.layers[i]},{self.names[i]},"
                             f"{self.starts[i]!r},{self.ends[i]!r},{self.sizes[i]}\n")
