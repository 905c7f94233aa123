"""Spans and counters around the public functions of the octoplane layers.

The tracer works from outside the package: it wraps every public function
of the layer modules (plus report rendering) and rebinds each ``octoplane.*``
module attribute that points at one of them.  Modules that imported a name
(``from .octonion import oct_mul``) therefore call the wrapper too, and so do
the calls a module makes to its own functions.

Each wrapped call records a span (name, start, end, parent) in memory and
bumps counters at the same boundary.  A span's self time is its duration
minus the time its child spans cover.  The time of the traced run that no
traced call covers is ``suites.self_s``, so

    sum(<layer>.self_s) + report.render_s + suites.self_s == trace.wall_s
"""

from __future__ import annotations

import collections
import functools
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("octonion", "geometry", "special", "quadrature", "poisson")
RENDERERS = ("render_json", "render_csv")

# name -> unit of every metric that layer_metrics returns
LAYER_METRIC_UNITS = {
    "octonion.oct_mul.rows": "count",
    "octonion.oct_mul.calls": "count",
    "octonion.oct_mul.self_s": "s",
    "octonion.oct_mul.ns_per_row": "ns",
    "octonion.self_s": "s",
    "geometry.phi_form.rows": "count",
    "geometry.bracket.rows": "count",
    "geometry.ni_dist.rows": "count",
    "geometry.jordan_product.calls": "count",
    "geometry.self_s": "s",
    "special.gauss_2f1.series.calls": "count",
    "special.gauss_2f1.connection.calls": "count",
    "special.gauss_2f1.binomial.calls": "count",
    "special.gauss_2f1.connection.us_per_call": "us",
    "special.gauss_2f1.distinct_params_ratio": "ratio",
    "special.spherical_fn_scaled.calls": "count",
    "special.self_s": "s",
    "quadrature.sample_sphere.points": "count",
    "quadrature.zonal_integrate.calls": "count",
    "quadrature.zonal_grid.self_s": "s",
    "quadrature.ball_integrate.self_s": "s",
    "quadrature.self_s": "s",
    "poisson.szego_kernel.rows": "count",
    "poisson.szego_matrix.entries": "count",
    "poisson.operator_norm_est.iterations": "count",
    "poisson.operator_norm_est.self_s": "s",
    "poisson.cz_suite.self_s": "s",
    "poisson.self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "suites.self_s": "s",
    "report.render_s": "s",
    "trace.wall_s": "s",
}


def _rows(*arrays) -> int:
    """Number of vectors in the broadcast of arrays whose last axis is the vector."""
    return math.prod(np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays)))


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.counts = collections.Counter()
        self.params_2f1: set = set()
        self._stack: list = []
        self._originals: dict = {}     # id(original) -> wrapper

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        """Wrapper of fn that records a span.  before(*args, **kwargs) runs
        before the span starts, counts, and may return a more specific span
        name; after(result) runs after it ends."""
        layer = name.split(".", 1)[0]
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key, errors_key = f"{name}.calls", f"{layer}.errors"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if before is not None:
                span_name = before(*args, **kwargs) or name
            counts[calls_key] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors_key] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, special_mod) -> dict:
        counts, params = self.counts, self.params_2f1
        z_switch_default = inspect.signature(special_mod.gauss_2f1).parameters["z_switch"].default

        def pair_rows(key):
            def hook(x, y, *_, **__):
                counts[key] += _rows(x, y)
            return hook

        def gauss_2f1(a, b, c, z, *_, z_switch=z_switch_default, **__):
            # the path rule of gauss_2f1's docstring
            a, b, c = complex(a), complex(b), complex(c)
            params.add((a, b, c))
            if b == c or a == c:
                path = "binomial"
            elif z <= z_switch:
                path = "series"
            else:
                path = "connection"
            counts[f"special.gauss_2f1.{path}.calls"] += 1
            return f"special.gauss_2f1.{path}"

        def szego_kernel(lam, r, theta, omega, *_, **__):
            counts["poisson.szego_kernel.rows"] += math.prod(
                np.broadcast_shapes(np.shape(r), np.shape(theta)[:-1], np.shape(omega)[:-1]))

        def szego_matrix(lam, r, thetas, omegas, *_, **__):
            counts["poisson.szego_matrix.entries"] += len(thetas) * len(omegas)

        def sample_sphere(n, *_, **__):
            counts["quadrature.sample_sphere.points"] += int(n)

        def norm_est_iterations(result):
            counts["poisson.operator_norm_est.iterations"] += result.iterations

        return {
            "octonion.oct_mul": (pair_rows("octonion.oct_mul.rows"), None),
            "geometry.phi_form": (pair_rows("geometry.phi_form.rows"), None),
            "geometry.bracket": (pair_rows("geometry.bracket.rows"), None),
            "geometry.ni_dist": (pair_rows("geometry.ni_dist.rows"), None),
            "special.gauss_2f1": (gauss_2f1, None),
            "poisson.szego_kernel": (szego_kernel, None),
            "poisson.szego_matrix": (szego_matrix, None),
            "poisson.operator_norm_est": (None, norm_est_iterations),
            "quadrature.sample_sphere": (sample_sphere, None),
        }

    def install(self) -> None:
        """Wrap the layers' public functions and rebind every reference to them."""
        import octoplane.cli  # noqa: F401  (loads every octoplane module)

        mods = {name: sys.modules[f"octoplane.{name}"] for name in LAYERS + ("report",)}
        hooks = self._hooks(mods["special"])
        targets = [(layer, name) for layer in LAYERS for name in mods[layer].__all__]
        targets += [("report", name) for name in RENDERERS]
        for layer, name in targets:
            fn = getattr(mods[layer], name)
            if inspect.isfunction(fn) and fn.__module__ == mods[layer].__name__:
                key = f"{layer}.{name}"
                self._originals[id(fn)] = self._wrap(key, fn, *hooks.get(key, (None, None)))
        rebind(self._originals)

    def unwrapped_references(self) -> list[str]:
        """``module.attr`` names that still point at an unwrapped traced function."""
        return [f"{mod.__name__}.{attr}" for mod in octoplane_modules()
                for attr, val in vars(mod).items() if id(val) in self._originals]

    # -- aggregation ----------------------------------------------------

    def self_times(self) -> tuple[dict, float]:
        """Self time summed per span name, and the total duration of the
        spans that have no traced parent."""
        child_time = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top += end - start
        self_by_name = collections.defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_by_name[name] += (end - start) - inner
        return dict(self_by_name), top

    def layer_metrics(self, wall_s: float) -> dict:
        """Every metric of LAYER_METRIC_UNITS for a traced run of wall_s seconds."""
        self_by_name, top = self.self_times()
        c = self.counts

        def self_of(prefix):
            return sum((v for k, v in self_by_name.items()
                        if k == prefix or k.startswith(prefix + ".")), 0.0)

        def per(total, n, scale):
            return total / n * scale if n else 0.0

        n_2f1 = sum(c[f"special.gauss_2f1.{p}.calls"] for p in ("series", "connection", "binomial"))
        out = {f"{layer}.self_s": self_of(layer) for layer in LAYERS}
        out.update({
            "octonion.oct_mul.self_s": self_of("octonion.oct_mul"),
            "octonion.oct_mul.ns_per_row": per(self_of("octonion.oct_mul"),
                                               c["octonion.oct_mul.rows"], 1e9),
            "special.gauss_2f1.connection.us_per_call": per(
                self_of("special.gauss_2f1.connection"),
                c["special.gauss_2f1.connection.calls"], 1e6),
            "special.gauss_2f1.distinct_params_ratio": per(len(self.params_2f1), n_2f1, 1.0),
            "quadrature.zonal_grid.self_s": self_of("quadrature.zonal_grid"),
            "quadrature.ball_integrate.self_s": self_of("quadrature.ball_integrate"),
            "poisson.operator_norm_est.self_s": self_of("poisson.operator_norm_est"),
            "poisson.cz_suite.self_s": self_of("poisson.cz_suite"),
            "report.render_s": self_of("report"),
            "suites.self_s": wall_s - top,
            "trace.wall_s": wall_s,
        })
        return {key: out[key] if unit != "count" else c[key]
                for key, unit in LAYER_METRIC_UNITS.items()}


def octoplane_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "octoplane" or n.startswith("octoplane."))]


def rebind(replacements: dict) -> None:
    """Point every octoplane module attribute whose value has an id in
    replacements at its replacement."""
    for mod in octoplane_modules():
        for attr, val in list(vars(mod).items()):
            if id(val) in replacements:
                setattr(mod, attr, replacements[id(val)])
