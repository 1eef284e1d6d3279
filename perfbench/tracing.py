"""Outside-in tracing of the ``odeuniq`` layers.

The tracer wraps the public functions of every package module, at every
module attribute that binds them, plus ``Expression.lambdify``,
``Expression.evaluate`` and ``Reparametrization.t_of_tau``.  Each wrapped
call records a span (name, start, end, parent, item, info); calls into
compiled expressions and ``Expression.evaluate`` are leaves and are only
counted and timed per parent span, which bounds memory.  ``uninstall``
restores every binding it replaced.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import time
from collections import defaultdict

# span record fields
NAME, START, END, PARENT, ITEM, INFO, ERROR = range(7)

LEAF_CALL = "expr.call"          # a function returned by Expression.lambdify
LEAF_EVALUATE = "expr.evaluate"  # strict scalar Expression.evaluate
LEAF_LAMBDIFY = "expr.lambdify"  # the lambdify call itself (cache lookup or compile)

QUAD = ("quadrature.integrate", "quadrature.integrate_singular_left",
        "quadrature.integrate_to_infinity")
CHECKS = ("criteria.check_nagumo", "criteria.check_athanassov",
          "criteria.check_constantin", "criteria.check_theorem_main")


def _public_functions(module):
    """Functions defined in ``module`` that form its public interface."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[obj] = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
    return out


def _info(name, result, args):
    """The per-span facts the layer metrics need, kept small."""
    if name in QUAD:
        return (result.subdivisions, result.converged, result.diverged)
    if name == "solver.integrate_ivp":
        return (len(result.t) - 1,)
    if name == "solver.funnel_probe":
        bad = sum(s not in ("completed", "stopped_at_singularity")
                  for s in result.statuses)
        nan_spread = sum(math.isnan(s) for _, s in result.spread_curve)
        return (bad + nan_spread,)
    if name in CHECKS:
        return (repr(args[0]),)  # identifies the problem, gauges included
    return None


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (parent span index, leaf name) -> [calls, seconds]
        self.leaves: dict = defaultdict(lambda: [0, 0.0])
        self.item = None
        self.compiles = 0  # lambdify calls that returned a new function
        self._seen: dict = {}   # id(raw compiled fn) -> (raw fn, wrapper)
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.item, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            rec[INFO] = _info(name, result, args)
            return result

        return traced

    def _leaf(self, fn, name):
        stack, leaves, clock = self.stack, self.leaves, time.perf_counter

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = leaves[(stack[-1] if stack else -1, name)]
                acc[0] += 1
                acc[1] += clock() - t0

        return leaf

    def _wrap_lambdify(self, lambdify):
        stack, leaves, clock = self.stack, self.leaves, time.perf_counter
        seen = self._seen

        @functools.wraps(lambdify)
        def traced_lambdify(expr, varnames):
            t0 = clock()
            raw = lambdify(expr, varnames)
            hit = seen.get(id(raw))
            if hit is None:
                hit = seen[id(raw)] = (raw, self._leaf(raw, LEAF_CALL))
                self.compiles += 1
            acc = leaves[(stack[-1] if stack else -1, LEAF_LAMBDIFY)]
            acc[0] += 1
            acc[1] += clock() - t0
            return hit[1]

        return traced_lambdify

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules, expression_cls, reparametrization_cls):
        """Wrap the public functions of ``modules`` wherever any of those
        modules binds them, and the three traced methods."""
        targets = {}
        for mod in modules:
            targets.update(_public_functions(mod))
        wrappers = {fn: self.wrap(fn, name) for fn, name in targets.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        self._patch(expression_cls, "lambdify",
                    self._wrap_lambdify(expression_cls.lambdify))
        self._patch(expression_cls, "evaluate",
                    self._leaf(expression_cls.evaluate, LEAF_EVALUATE))
        self._patch(reparametrization_cls, "t_of_tau",
                    self.wrap(reparametrization_cls.t_of_tau,
                              "reparam.Reparametrization.t_of_tau"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self):
        return [(owner, attr) for owner, attr, _ in self._patches]

    def dump(self, path):
        """Write the spans and leaf aggregates as gzip JSON lines."""
        with gzip.open(path, "wt") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[NAME],
                                     "start": rec[START], "end": rec[END],
                                     "parent": rec[PARENT], "item": rec[ITEM],
                                     "error": rec[ERROR]}) + "\n")
            for (parent, name), (n, s) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent,
                                     "calls": n, "s": s}) + "\n")


def self_times(spans, leaves) -> list[float]:
    """Each span's duration minus the time its child spans and its leaf
    calls cover.  Spans nest strictly (one thread), so children of one
    span never overlap and their durations add."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    for (parent, _), (_, s) in leaves.items():
        if parent >= 0:
            child[parent] += s
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def deterministic_counts(tracer) -> dict:
    """Per-item work counts that must repeat exactly between passes."""
    counts = defaultdict(lambda: [0, 0, 0, 0])  # expr calls, panels, steps, bisects
    for (parent, name), (n, _) in tracer.leaves.items():
        if name == LEAF_CALL and parent >= 0:
            counts[tracer.spans[parent][ITEM]][0] += n
    for rec in tracer.spans:
        name = rec[NAME]
        if name in QUAD and rec[INFO] is not None:
            counts[rec[ITEM]][1] += rec[INFO][0]
        elif name == "solver.integrate_ivp" and rec[INFO] is not None:
            counts[rec[ITEM]][2] += rec[INFO][0]
        elif name == "rootfind.bisect":
            counts[rec[ITEM]][3] += 1
    return {item: tuple(c) for item, c in counts.items()}


def _ancestor_names(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p][NAME]
        p = spans[p][PARENT]


CLI_COMPUTE = ("cli.load_problem", "cli.run_checks", "cli.run_suite")


def layer_metrics(tracer, traced_run_s: float, untraced_run_s: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    spans = tracer.spans
    selfs = self_times(spans, tracer.leaves)
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_by_name = defaultdict(float)
    layer_self = defaultdict(float)
    for rec, s in zip(spans, selfs):
        name = rec[NAME]
        calls[name] += 1
        incl[name] += rec[END] - rec[START]
        self_by_name[name] += s
        layer_self[name.split(".", 1)[0]] += s
    leaf_n = defaultdict(int)
    leaf_s = defaultdict(float)
    for (_, name), (n, s) in tracer.leaves.items():
        leaf_n[name] += n
        leaf_s[name] += s
        layer_self["expr"] += s

    panels = defaultdict(int)
    unconverged = diverged = steps = lanes_failed = bracket_errors = 0
    theorem_quad_s = 0.0
    report_keys = []
    for i, rec in enumerate(spans):
        name, info = rec[NAME], rec[INFO]
        if name in QUAD:
            if info is not None:
                panels[name] += info[0]
                unconverged += not info[1] and not info[2]
                diverged += info[2]
            above = list(_ancestor_names(spans, i))
            if not any(a in QUAD for a in above) and \
                    "criteria.check_theorem_main" in above:
                theorem_quad_s += rec[END] - rec[START]
        elif name == "solver.integrate_ivp" and info is not None:
            steps += info[0]
        elif name == "solver.funnel_probe" and info is not None:
            lanes_failed += info[0]
        elif name == "rootfind.bisect" and rec[ERROR] == "BracketError":
            bracket_errors += 1
        elif name in CHECKS and info is not None:
            report_keys.append((rec[ITEM], name, info[0]))

    def per(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    n_reports = len(report_keys)
    n_unique = len(set(report_keys))
    integrate = "quadrature.integrate"
    singular = "quadrature.integrate_singular_left"
    m = {
        "expr.calls": (leaf_n[LEAF_CALL], "count"),
        "expr.self_s": (leaf_s[LEAF_CALL], "s"),
        "expr.call_us": (per(leaf_s[LEAF_CALL], leaf_n[LEAF_CALL], 1e6), "us"),
        "expr.evaluate_calls": (leaf_n[LEAF_EVALUATE], "count"),
        "expr.evaluate_s": (leaf_s[LEAF_EVALUATE], "s"),
        "expr.compiles": (tracer.compiles, "count"),
        "quadrature.integrate.calls": (calls[integrate], "count"),
        "quadrature.integrate.panels": (panels[integrate], "count"),
        "quadrature.integrate.self_s": (self_by_name[integrate], "s"),
        "quadrature.integrate_singular_left.calls": (calls[singular], "count"),
        "quadrature.integrate_singular_left.panels": (panels[singular], "count"),
        "quadrature.integrate_singular_left.self_s": (self_by_name[singular], "s"),
        "quadrature.panels_per_call": (per(panels[integrate], calls[integrate]),
                                       "ratio"),
        "quadrature.unconverged": (unconverged, "count"),
        "quadrature.diverged": (diverged, "count"),
    }
    for name in CHECKS + ("criteria.equivalence_suite",):
        m[f"{name}.s"] = (incl[name], "s")
    m["criteria.check_theorem_main.quad_s"] = (theorem_quad_s, "s")
    m["criteria.reports"] = (n_reports, "count")
    m["criteria.repeat_reports"] = (n_reports - n_unique, "count")
    m["criteria.unique_report_ratio"] = (per(n_unique, n_reports) if n_reports
                                         else 1.0, "ratio")
    ivp = "solver.integrate_ivp"
    m.update({
        "solver.funnel_probe.s": (incl["solver.funnel_probe"], "s"),
        "solver.forward_spread.s": (incl["solver.forward_spread"], "s"),
        "solver.integrate_ivp.calls": (calls[ivp], "count"),
        "solver.integrate_ivp.self_s": (self_by_name[ivp], "s"),
        "solver.steps_accepted": (steps, "count"),
        "solver.step_us": (per(incl[ivp], steps, 1e6), "us"),
        "solver.lanes_failed": (lanes_failed, "count"),
    })
    for fn in ("build_tau", "verify_fixed_point", "alpha_l1_check",
               "exp_reparam_check"):
        m[f"reparam.{fn}.s"] = (incl[f"reparam.{fn}"], "s")
    m["reparam.t_of_tau.calls"] = (calls["reparam.Reparametrization.t_of_tau"],
                                   "count")
    m["rootfind.bisect.calls"] = (calls["rootfind.bisect"], "count")
    m["rootfind.bisect.s"] = (incl["rootfind.bisect"], "s")
    m["rootfind.bracket_errors"] = (bracket_errors, "count")
    for name in CLI_COMPUTE:
        m[f"{name}.s"] = (incl[name], "s")
    # main minus its compute children: argument parsing plus JSON output
    m["cli.write_s"] = (sum(s for n, s in self_by_name.items()
                            if n.startswith("cli.") and n not in CLI_COMPUTE),
                        "s")
    for layer in ("cli", "criteria", "expr", "quadrature", "reparam",
                  "rootfind", "solver"):
        m[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.run_s"] = (traced_run_s, "s")
    m["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
    m["trace.accounted_frac"] = (per(sum(layer_self.values()), traced_run_s),
                                 "ratio")
    return m
