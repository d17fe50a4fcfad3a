"""Outside-in layer trace: spans recorded around calls into susyq's modules.

``Tracer.install`` wraps the public functions and methods listed below in
every ``susyq.*`` namespace that binds them (modules import each other with
``from .numerics import inner``, so patching the defining module alone would
miss calls).  Spans (name, start, end, parent, attributes) are kept in memory;
``per_layer`` computes self times from them and ``write`` dumps them.

A listed name that no longer exists raises ``TracerError``: the traced run
fails instead of silently dropping a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref

LAYERS = ("expr", "numerics", "susy", "models", "deform", "gk", "suites", "cli")

# (module, attribute, span name).  Span names start with their layer.  Some
# entries feed no metric of their own; they attribute self time to the right
# layer (parse and differentiate to expr, pair_norm to gk, and so on).
FUNCTIONS = [
    ("expr", "parse", "expr.parse"),
    ("expr", "differentiate", "expr.differentiate"),
    ("expr", "evaluate", "expr.evaluate"),
    ("expr", "evaluate_array", "expr.evaluate_array"),
    ("numerics", "sample", "numerics.sample"),
    ("numerics", "derivative", "numerics.derivative"),
    ("numerics", "inner", "numerics.inner"),
    ("numerics", "norm", "numerics.norm"),
    ("numerics", "relative_residual", "numerics.relative_residual"),
    ("numerics", "cumulative_antiderivative", "numerics.cumulative_antiderivative"),
    ("numerics", "fitted_decay_exponents", "numerics.fitted_decay_exponents"),
    ("numerics", "integrate_halfline", "numerics.integrate_halfline"),
    ("susy", "build_pair", "susy.build_pair"),
    *[("susy", f"apply_{op}", "susy.apply")
      for op in ("A", "B", "A_dag", "B_dag", "H1", "H2", "H1_dag", "H2_dag")],
    ("susy", "vacua", "susy.vacua"),
    ("susy", "intertwine_check", "susy.intertwine_check"),
    ("susy", "superalgebra_check", "susy.superalgebra_check"),
    ("models", "get_model", "models.get_model"),
    ("models", "hermite", "models.hermite"),
    ("deform", "deformed_basis_report", "deform.deformed_basis_report"),
    ("deform", "deformed_eigencheck", "deform.deformed_eigencheck"),
    ("gk", "gk_domain", "gk.gk_domain"),
    ("gk", "normalization_K", "gk.normalization_K"),
    ("gk", "build_state", "gk.build_state"),
    ("gk", "pair_norm", "gk.pair_norm"),
    ("gk", "action_identity", "gk.action_identity"),
    ("gk", "lowering_defect", "gk.lowering_defect"),
    ("gk", "moment_density", "gk.moment_density"),
    ("gk", "moment_residuals", "gk.moment_residuals"),
    ("gk", "resolution_estimate", "gk.resolution_estimate"),
    ("suites", "verify_model", "suites.verify_model"),
    ("suites", "verify_pair", "suites.verify_pair"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("numerics", "GridFunction", "__init__", "numerics.carriers"),
    ("numerics", "ScaledGridFunction", "__init__", "numerics.carriers"),
    ("susy", "SuperpotentialPair", "samples", "susy.samples"),
    ("models", "ModelRecord", "vacua", "models.vacua"),
    ("deform", "Deformation", "multiplier_values", "deform.multiplier"),
    ("deform", "Deformation", "inverse_dual_values", "deform.multiplier"),
]

# the callables of each record get_model returns
EIGENFAMILIES = ("phi1", "psi1", "phi2", "psi2")


class TracerError(RuntimeError):
    """A listed function, class or method is missing from the package."""


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays if a is not None)


def _carrier_arrays(f):
    """Arrays a kernel reads from a carrier: values plus any log scale data."""
    return (f.values, getattr(f, "log_scale", None),
            getattr(f, "dlog", None), getattr(f, "d2log", None))


class _SeenGrids:
    """Which grids each live object has been called on; keyed by identity so
    that big per-grid caches are not kept alive by the tracer."""

    def __init__(self):
        self._grids = {}

    def visit(self, obj, grid) -> bool:
        key = id(obj)
        if key not in self._grids:
            self._grids[key] = set()
            weakref.finalize(obj, self._grids.pop, key, None)
        seen = self._grids[key]
        hit = grid in seen
        seen.add(grid)
        return hit


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, attrs)
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._samples_seen = _SeenGrids()
        self._multiplier_seen = _SeenGrids()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        """``before(args)`` runs ahead of the timed call, ``after(args,
        result)`` behind it; each returns span attributes or None."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args) if before is not None else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1, attrs)
            if after is not None:
                extra = after(args, result)
                if extra:
                    spans[idx] = spans[idx][:4] + ({**(attrs or {}), **extra},)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def _hooks(self, name):
        """(before, after) attribute hooks of a span name."""
        if name == "numerics.inner":
            def inner_attrs(args):
                f, g = args[:2]
                # the float64 Simpson weights are half the size of the values
                return {"scaled": hasattr(f, "log_scale") or hasattr(g, "log_scale"),
                        "bytes": f.values.nbytes // 2
                        + _nbytes(*_carrier_arrays(f), *_carrier_arrays(g))}
            return inner_attrs, None
        if name == "numerics.derivative":
            return None, lambda args, result: {
                "bytes": _nbytes(*_carrier_arrays(args[0]), result.values)}
        if name == "models.hermite":
            return lambda args: {"steps": max(int(args[0]) - 1, 0)}, None
        if name == "susy.samples":
            return lambda args: {"hit": self._samples_seen.visit(args[0], args[1])}, None
        if name == "deform.multiplier":
            def reuse(args):
                d = args[0]
                grid = args[1] if len(args) > 1 and args[1] is not None else d.grid
                return {"reuse": self._multiplier_seen.visit(d, grid)}
            return reuse, None
        if name == "models.get_model":
            return None, self._wrap_record
        if name == "suites.verify_model":
            return None, lambda args, result: _suite_attrs(args[0], result)
        if name == "suites.verify_pair":
            return None, lambda args, result: _suite_attrs("user-pair", result)
        if name == "cli.main":
            return lambda args: _cli_attrs(args[0]), None
        return None, None

    def _wrap_record(self, args, record):
        for attr in EIGENFAMILIES:
            fn = getattr(record, attr)
            if fn is not None and not getattr(fn, "__wrapped_by_tracer__", False):
                setattr(record, attr, self._wrap(fn, "models.eigenfamily"))
        return None

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed callable in every susyq namespace binding it."""
        modules = {name: importlib.import_module(f"susyq.{name}") for name in LAYERS}
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "susyq" or key.startswith("susyq."))]
        try:
            for mod, attr, name in FUNCTIONS:
                original = getattr(modules[mod], attr, None)
                if not callable(original):
                    raise TracerError(f"susyq.{mod}.{attr} is listed for tracing but missing")
                traced = self._wrap(original, name, *self._hooks(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, traced)
            for mod, cls_name, meth, name in METHODS:
                cls = getattr(modules[mod], cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if not callable(original):
                    raise TracerError(
                        f"susyq.{mod}.{cls_name}.{meth} is listed for tracing but missing")
                self._patch(cls, meth, self._wrap(original, name, *self._hooks(name)))
        except TracerError:
            self.uninstall()
            raise

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(t1 - t0) - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": [[index[n], t0, t1, p, a] for n, t0, t1, p, a in self.spans]},
                      fh, separators=(",", ":"))


def _suite_attrs(suite, result):
    checks = list(result.checks())
    return {"suite": suite, "checks": len(checks),
            "failed": sum(1 for c in checks if not c.passed)}


def _cli_attrs(argv):
    argv = list(argv)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    return {"subcommand": argv[0], "fmt": fmt}


def _frac(num, den):
    return num / den if den else 0.0


def per_layer(tracer: Tracer, passes: int, traced_wall: float, untraced_wall: float,
              suites, subcommands, cli_output: dict) -> dict:
    """Per-pass layer metrics from the recorded spans.

    ``traced_wall`` and ``untraced_wall`` are per-pass op times with and
    without the trace; ``cli_output`` holds per-pass bytes and table rows
    written by CLI ops (measured from the files, outside the spans).
    """
    selfs = tracer.self_times()
    calls, incl, self_s, attr_sum = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    suite_s = dict.fromkeys(suites, 0.0)
    sub_s = dict.fromkeys(subcommands, 0.0)
    cli_fmt_self = {"csv": 0.0, "json": 0.0}
    checks = failed = 0
    for (name, t0, t1, parent, attrs), st in zip(tracer.spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + st
        layer_self[name.split(".", 1)[0]] += st
        if attrs:
            for key, value in attrs.items():
                if isinstance(value, (bool, int, float)):
                    attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value
            if name.startswith("suites."):
                suite_s[attrs["suite"]] = suite_s.get(attrs["suite"], 0.0) + (t1 - t0)
                checks += attrs["checks"]
                failed += attrs["failed"]
            if name == "cli.main":
                # self time of a cli span: row building, formatting, writers
                sub_s[attrs["subcommand"]] = sub_s.get(attrs["subcommand"], 0.0) + (t1 - t0)
                cli_fmt_self[attrs["fmt"]] += st

    def c(name):
        return calls.get(name, 0) / passes

    def s(table, name):
        return table.get(name, 0.0) / passes

    def a(name, key):
        return attr_sum.get((name, key), 0) / passes

    m = {}
    for name in ("expr.evaluate_array", "expr.evaluate"):
        m[f"{name}.calls"] = c(name)
        m[f"{name}.self_s"] = s(self_s, name)
    m["numerics.inner.calls"] = c("numerics.inner")
    m["numerics.inner.self_s"] = s(self_s, "numerics.inner")
    m["numerics.inner.scaled_frac"] = _frac(a("numerics.inner", "scaled"), c("numerics.inner"))
    m["numerics.inner.bytes"] = a("numerics.inner", "bytes")
    m["numerics.derivative.calls"] = c("numerics.derivative")
    m["numerics.derivative.self_s"] = s(self_s, "numerics.derivative")
    m["numerics.derivative.bytes"] = a("numerics.derivative", "bytes")
    for name in ("numerics.relative_residual", "numerics.norm"):
        m[f"{name}.calls"] = c(name)
        m[f"{name}.self_s"] = s(self_s, name)
    for name in ("numerics.cumulative_antiderivative", "numerics.fitted_decay_exponents",
                 "numerics.integrate_halfline"):
        m[f"{name}.self_s"] = s(self_s, name)
    m["numerics.carriers.new"] = c("numerics.carriers")
    m["numerics.carriers.self_s"] = s(self_s, "numerics.carriers")
    m["susy.apply.calls"] = c("susy.apply")
    m["susy.apply.self_s"] = s(self_s, "susy.apply")
    m["susy.samples.calls"] = c("susy.samples")
    m["susy.samples.hit_frac"] = _frac(a("susy.samples", "hit"), c("susy.samples"))
    m["susy.build_pair.calls"] = c("susy.build_pair")
    m["susy.build_pair.s"] = s(incl, "susy.build_pair")
    for name in ("susy.vacua", "susy.intertwine_check", "susy.superalgebra_check"):
        m[f"{name}.s"] = s(incl, name)
    m["models.get_model.calls"] = c("models.get_model")
    m["models.get_model.s"] = s(incl, "models.get_model")
    m["models.hermite.calls"] = c("models.hermite")
    m["models.hermite.self_s"] = s(self_s, "models.hermite")
    m["models.hermite.steps"] = a("models.hermite", "steps")
    m["models.eigenfamily.calls"] = c("models.eigenfamily")
    m["models.eigenfamily.self_s"] = s(self_s, "models.eigenfamily")
    m["deform.multiplier.calls"] = c("deform.multiplier")
    m["deform.multiplier.self_s"] = s(self_s, "deform.multiplier")
    m["deform.multiplier.grid_reuse_frac"] = _frac(a("deform.multiplier", "reuse"),
                                                   c("deform.multiplier"))
    for name in ("deform.deformed_basis_report", "deform.deformed_eigencheck"):
        m[f"{name}.s"] = s(incl, name)
    for name in ("gk.build_state", "gk.normalization_K"):
        m[f"{name}.calls"] = c(name)
        m[f"{name}.s"] = s(incl, name)
    for name in ("gk.resolution_estimate", "gk.gk_domain", "gk.moment_residuals"):
        m[f"{name}.s"] = s(incl, name)
    for suite in suites:
        m[f"suites.{suite}.s"] = suite_s.get(suite, 0.0) / passes
    m["suites.checks"] = checks / passes
    m["suites.checks_failed"] = failed / passes
    for sub in subcommands:
        m[f"cli.{sub}.s"] = sub_s.get(sub, 0.0) / passes
    m["cli.self_s"] = layer_self["cli"] / passes
    m["cli.csv.self_s"] = cli_fmt_self["csv"] / passes
    m["cli.json.self_s"] = cli_fmt_self["json"] / passes
    m["cli.bytes_written"] = cli_output["bytes"]
    m["cli.rows_written"] = cli_output["rows"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / passes
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    m["trace.coverage"] = _frac(sum(layer_self.values()) / passes, traced_wall)
    return m


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[1]
    if leaf in ("s", "self_s"):
        return "s"
    if leaf == "bytes":
        return "bytes_computed"
    if leaf == "bytes_written":
        return "bytes"
    if leaf.endswith("frac") or leaf == "coverage":
        return "ratio"
    return "count"
