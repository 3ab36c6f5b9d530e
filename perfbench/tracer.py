"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps the public functions of each ``staticlab`` layer at their
module (or class) attributes, from this file only: nothing under ``src/`` is
edited.  A function imported by name into another module (``from .numerics
import quad``) is rebound in every ``staticlab`` module that holds it, so the
call sites inside the package see the wrapper too.  ``uninstall`` puts every
original object back and checks that it did.

Spans are aggregated as they close instead of being stored one by one: the
scalar quadrature paths evaluate the model profile ~10^5 times per pass, and
a list of that many span records would cost more memory than the workload.
Per span name the tracer keeps the call count, the total time, the self time
(total minus the time covered by child spans) and any extra counters.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _size(x):
    try:
        return int(getattr(x, "size", None) or len(x))
    except TypeError:
        return 1


def _names(modname, suffix):
    """Sorted attribute names of ``staticlab.<modname>`` ending in ``suffix``."""
    module = sys.modules.get(f"staticlab.{modname}")
    return sorted(name for name in vars(module) if name.endswith(suffix)) if module else []


class _Stats:
    __slots__ = ("calls", "total", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.counters = defaultdict(int)


class Tracer:
    """Installs span wrappers on the ``staticlab`` layers and aggregates them."""

    def __init__(self):
        self.stats = defaultdict(_Stats)
        self._stack = []  # open spans: [name, child_time]
        self._patches = []  # (owner, attribute, original)
        self.missing = []  # targets this version of the package lacks
        self._chart_misses = 0

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name, on_enter=None, on_exit=None):
        """Span ``name`` (a string, or a callable of the call's arguments)."""
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            st = stats[span]
            if on_enter is not None:
                on_enter(st, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                st.calls += 1
                st.total += dt
                st.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if not ok:
                    st.counters["failed"] += 1
                if on_exit is not None:
                    on_exit(st, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _quad_span(self, args, kwargs):
        # quad called from inside cumulative_quad is its scalar fallback: it is
        # counted there and its time stays in cumulative_quad's self time
        if self._stack and self._stack[-1][0] == "numerics.cumulative_quad":
            self.stats["numerics.cumulative_quad"].counters["fallback_intervals"] += 1
            return None
        return "numerics.quad"

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(module, attribute, span name, on_enter, on_exit) for each layer boundary."""
        def count(key, index, argname, offset=0):
            def hook(st, args, kwargs):
                x = _arg(args, kwargs, index, argname)
                if x is not None:
                    st.counters[key] += _size(x) + offset
            return hook

        def file_bytes(index, argname):
            def hook(st, args, kwargs):
                path = _arg(args, kwargs, index, argname)
                try:
                    st.counters["bytes"] += os.path.getsize(path)
                except (OSError, TypeError):
                    pass
            return hook

        def criterion(args, kwargs):
            return f"acceptance.criterion.{_arg(args, kwargs, 0, 'number')}"

        def scenario(args, kwargs):
            argv = _arg(args, kwargs, 0, "argv")
            if not argv or len(argv) < 2 or argv[0] != "run":
                return None
            base = os.path.basename(str(argv[1]))
            return "cli.scenario." + (base[:-4] if base.endswith(".cfg") else base)

        emit = "reporting.emit"
        return [
            ("numerics", "cumulative_quad", "numerics.cumulative_quad",
             count("intervals", 1, "nodes", -1), None),
            ("numerics", "quad", self._quad_span, None, None),
            ("numerics", "tridiag_solve", "numerics.tridiag_solve", count("rows", 1, "diag"), None),
            ("geometry", "RadialProfile.evaluate", "geometry.profile_eval", count("points", 1, "s"), None),
            ("geometry", "Warp.evaluate", "geometry.warp_eval", count("points", 1, "s"), None),
            ("geometry", "curvature_sample", "geometry.curvature", None, None),
            ("geometry", "spacetime_ricci", "geometry.curvature", None, None),
            ("geometry", "base_curvature", "geometry.curvature", None, None),
            ("graphs", "solve_radial_graph", "graphs.solve_radial_graph", count("nodes", 3, "grid"), None),
            ("estimates", "mean_H_average", "estimates.mean_H_average", None, None),
            ("estimates", "weighted_volumes", "estimates.weighted_volumes", None, None),
            ("estimates", "_VolumeCache.__init__", "estimates.volume_cache", None, None),
            ("estimates", "growth_diagnostics", "estimates.growth_diagnostics", None, None),
            ("estimates", "lambda1_estimate", "estimates.lambda1_estimate", None, None),
            ("elliptic", "newton_solve", "elliptic.newton_solve", None, None),
            ("elliptic", "residual", "elliptic.residual", None, None),
            ("barriers", "build_barrier_schwarzschild", "barriers.build", None, None),
            ("barriers", "build_barrier_prod0", "barriers.build", None, None),
            ("barriers", "verify_barrier", "barriers.verify_barrier", None, None),
            ("tensors", "static_riemann", "tensors.static_riemann", None, None),
            ("reporting", "write_reports_csv", emit, None, file_bytes(1, "path")),
            ("reporting", "svg_polyline", emit, None, file_bytes(2, "path")),
            ("graphs", "export_graph_csv", emit, None, file_bytes(1, "path")),
            ("barriers", "export_barrier_csv", emit, None, file_bytes(1, "path")),
            ("elliptic", "export_solution_csv", emit, None, file_bytes(3, "path")),
            ("acceptance", "run_criterion", criterion, None, None),
            ("cli", "main", scenario, None, None),
        ] + [
            ("estimates", name, "estimates.checks", None, None) for name in _names("estimates", "_check")
        ] + [
            ("tensors", name, "tensors.batch", None, None) for name in _names("tensors", "_batch")
        ]

    def install(self):
        import staticlab.acceptance  # noqa: F401  (not imported by the package root)
        import staticlab.cli  # noqa: F401

        modules = [m for k, m in sys.modules.items() if k.startswith("staticlab.") and m is not None]
        for modname, attr, span, on_enter, on_exit in self._targets():
            module = sys.modules.get(f"staticlab.{modname}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, span, on_enter, on_exit)
            if owner_name:
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            # rebind the function wherever the package imported it by name
            for mod in modules:
                if vars(mod).get(leaf) is original:
                    self._patches.append((mod, leaf, original))
                    setattr(mod, leaf, wrapper)

    def uninstall(self):
        """Restore every patched attribute; raise if one did not come back."""
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        bad = [f"{getattr(o, '__name__', o)}.{leaf}" for o, leaf, orig in self._patches
               if vars(o).get(leaf) is not orig]
        self._patches.clear()
        if bad:
            raise RuntimeError(f"tracer failed to restore: {', '.join(bad)}")

    # -- per-pass readout -------------------------------------------------------

    def _chart_cache_misses(self):
        chart = getattr(sys.modules["staticlab.geometry"], "_chart", None)
        info = getattr(chart, "cache_info", None)
        return info().misses if info is not None else 0

    def reset(self):
        self.stats.clear()
        self._chart_misses = self._chart_cache_misses()

    def readout(self):
        """Flat {metric: value} of everything recorded since ``reset``."""
        out = {"geometry.chart_builds": self._chart_cache_misses() - self._chart_misses}
        for span, st in self.stats.items():
            out[f"{span}.calls"] = st.calls
            out[f"{span}.self_s"] = st.self_s
            out[f"{span}.s"] = st.total
            for key, value in st.counters.items():
                out[f"{span}.{key}"] = value
        out["estimates.volume_cache.builds"] = out.get("estimates.volume_cache.calls", 0)
        return out
