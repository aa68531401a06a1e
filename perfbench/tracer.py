"""Outside tracer: spans and counts taken by wrapping fmethod's public callables.

Nothing inside the package changes.  `Tracer.install()` replaces every
binding through which a traced callable is reached (the defining module,
every module and package namespace that imported it, or the class
attribute of a method) with a wrapper, and `remove()` puts the originals
back.  Spans stay in memory until the run ends.

Modes:
  span   record a span (name, start, end, nearest traced parent) and keep it
  agg    time the call and fold it into per-name totals without keeping it
  count  count the call only, attributed to the nearest traced parent

`self_s` is a span's duration minus the time covered by its traced
children; `total_s` counts only outermost spans of a name, so recursion is
not counted twice.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, metric name, mode)
TARGETS = [
    ("algebra", "Matrix.rref", "algebra.Matrix.rref", "agg"),
    ("algebra", "Polynomial.__mul__", "algebra.Polynomial.mul", "count"),
    ("algebra", "Polynomial.__rmul__", "algebra.Polynomial.mul", "count"),
    ("algebra", "Polynomial.derivative", "algebra.Polynomial.derivative", "count"),
    ("liealg", "bracket", "liealg.bracket", "agg"),
    ("weyl", "WeylElement.apply", "weyl.WeylElement.apply", "agg"),
    ("weyl", "WeylElement.compose", "weyl.WeylElement.compose", "agg"),
    ("weyl", "WeylElement.fourier", "weyl.WeylElement.fourier", "agg"),
    ("rep", "induced_operator", "rep.induced_operator", "agg"),
    ("rep", "SymFiber.act", "rep.SymFiber.act", "agg"),
    ("params", "predicted_dim_sl", "params.predicted_dim", "span"),
    ("params", "predicted_dim_sl_connected", "params.predicted_dim", "span"),
    ("params", "predicted_dim_gl", "params.predicted_dim", "span"),
    ("params", "predicted_dim_ido", "params.predicted_dim", "span"),
    ("engine", "solve_fsystem", "engine.solve_fsystem", "span"),
    ("engine", "same_solution_span", "engine.same_solution_span", "span"),
    ("engine", "classify_sl_cell", "engine.cell", "span"),
    ("engine", "classify_gl_cell", "engine.cell", "span"),
    ("engine", "classify_ido_cell", "engine.cell", "span"),
    ("operators", "check_equivariance", "operators.check_equivariance", "span"),
    ("operators", "verify_factorization_sbo", "operators.verify_factorization_sbo", "span"),
    ("verma", "classify_homs", "verma.classify_homs", "span"),
    ("verma", "check_hom_equivariance", "verma.check_hom_equivariance", "span"),
    ("verma", "verify_factorization_verma", "verma.verify_factorization_verma", "span"),
    ("branch", "verify_branching", "branch.verify_branching", "span"),
    ("branch", "invariants_in", "branch.invariants_in", "span"),
    ("cli", "main", "cli.main", "span"),
]

# lru_cache'd callables read through cache_info() deltas instead of wrappers
CACHED = [
    ("rep", "dpi_hat"),
    ("rep", "dpi_lambda"),
    ("rep", "dpi_target"),
    ("liealg", "parabolic"),
]

# extra per-call quantity: Matrix.rref entries = nrows * ncols of the input
EXTRA = {"algebra.Matrix.rref": lambda args: args[0].nrows * args[0].ncols}


class _Stat:
    __slots__ = ("calls", "total", "self", "extra", "by_parent", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.extra = 0
        self.by_parent = {}
        self.depth = 0


def _resolve(owner, path):
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    def __init__(self, trace_id="", clock=time.perf_counter):
        self.trace_id = trace_id
        self.clock = clock
        self.stack = []  # open frames: [name, start, child_time, kept_id]
        self.spans = []  # kept spans: (trace, id, parent, name, start, end)
        self.stats = {}
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)
        self.cache_before = {}
        self.solve_args = []  # (args, kwargs) of every solve_fsystem call

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, mode):
        stat = self.stats.setdefault(name, _Stat())
        stack, clock = self.stack, self.clock
        extra = EXTRA.get(name)

        if mode == "count":
            def counted(*args, **kwargs):
                parent = stack[-1][0] if stack else None
                stat.calls += 1
                stat.by_parent[parent] = stat.by_parent.get(parent, 0) + 1
                return fn(*args, **kwargs)
            return counted

        keep = mode == "span"
        record = self.solve_args if name == "engine.solve_fsystem" else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            pname = parent[0] if parent else None
            stat.by_parent[pname] = stat.by_parent.get(pname, 0) + 1
            if extra is not None:
                stat.extra += extra(args)
            if record is not None:
                record.append((args, kwargs))
            kept_parent = parent[3] if parent else None
            if keep:
                self._next_id += 1
                kept_id = self._next_id
            else:
                kept_id = kept_parent
            frame = [name, clock(), 0.0, kept_id]
            stack.append(frame)
            stat.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                dur = end - frame[1]
                stat.calls += 1
                stat.self += dur - frame[2]
                if stat.depth == 0:
                    stat.total += dur
                if parent is not None:
                    parent[2] += dur
                if keep:
                    self.spans.append((self.trace_id, kept_id, kept_parent, name, frame[1], end))
        return traced

    # -- install / remove ------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "fmethod" or k.startswith("fmethod.")) and m is not None]
        for modname, path, name, mode in TARGETS:
            owner, attr = _resolve(sys.modules[f"fmethod.{modname}"], path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, mode)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        for modname, attr in CACHED:
            self.cache_before[f"{modname}.{attr}"] = self._cache_info(modname, attr)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Every binding the tracer replaced holds the original object again."""
        return all(vars(owner).get(attr) is original for owner, attr, original in self._patches)

    @staticmethod
    def _cache_info(modname, attr):
        info = getattr(sys.modules[f"fmethod.{modname}"], attr).cache_info()
        return info.hits, info.misses

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name aggregates and cache deltas, JSON-able."""
        out = {"stats": {}, "caches": {}}
        for name, st in self.stats.items():
            out["stats"][name] = {
                "calls": st.calls,
                "total_s": st.total,
                "self_s": st.self,
                "extra": st.extra,
                "by_parent": {str(k): v for k, v in st.by_parent.items()},
            }
        for key, (h0, m0) in self.cache_before.items():
            h1, m1 = self._cache_info(*key.split("."))
            out["caches"][key] = {"hits": h1 - h0, "misses": m1 - m0}
        return out
