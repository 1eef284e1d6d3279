"""Command-line front end: load a JSON problem description, run criterion
checks, reparametrizations, or solver probes, and emit deterministic JSON
or CSV reports.

Subcommands
-----------
check    run requested uniqueness criteria, exit 0 pass / 1 fail / 2 config
reparam  build tau(t), emit (t, tau) table and residual diagnostics
solve    integrate the trajectory x' = -f(t,x), emit CSV
funnel   backward-reachability probe of the zero solution, emit JSON
suite    run checks + funnel over a corpus directory, combined matrix

Each subcommand takes --out and exactly the flags it reads; any other
flag is an argparse usage error (exit 2).  Summary lines go to stdout when
--out holds the report, else to stderr, so stdout is one document.

Problem files are JSON with string expression fields, e.g.
{"f": "t*x", "u": "t", "omega": "r", "T": 1.0, "x_bound": 1.0}.
JSON reports embed a schema version and a ``config`` block: the flags
the subcommand read, static defaults filled in (an unset --T or --t-floor
is null), and the problem name.  No timestamps: reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import criteria, reparam as reparam_mod, solver as solver_mod
from .criteria import CheckConfig, ProblemSpec, ProblemValidationError
from .expr import ExprError
from .quadrature import IntegrandError
from .rootfind import BracketError, ConvergenceError

SCHEMA_VERSION = "1.1"

# name -> (gauges the criterion requires, its check), in the suite's run
# order.  The checks look up criteria.check_* at call time, so that a
# patched criteria.check_* takes effect.
CRITERIA = {
    "nagumo": ((), lambda p, c: criteria.check_nagumo(p, c)),
    "athanassov": (("u",), lambda p, c: criteria.check_athanassov(p, c)),
    "constantin": (("u", "omega"),
                   lambda p, c: criteria.check_constantin(p, c)),
    "theorem1-reduced": (("u", "omega"), lambda p, c:
                         criteria.check_theorem_main(criteria.reduce_problem(p), c)),
    "theorem1": (("v", "lam", "omega"),
                 lambda p, c: criteria.check_theorem_main(p, c)),
}


class ConfigError(Exception):
    """Invalid invocation or problem file; maps to exit code 2."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _json(obj, pad: str = "\n") -> str:
    """obj as deterministic JSON: keys turned to str and sorted, indent 2,
    ASCII only, numpy scalars and arrays as numbers and lists, and each
    non-finite float as its repr string (``"nan"``, ``"inf"``, ``"-inf"``).
    ``pad`` starts each line of the enclosing level.  These are the bytes
    of ``json.dumps(..., sort_keys=True, indent=2)`` on the converted
    object, without its pure-Python indenting encoder."""
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return float.__repr__(x) if math.isfinite(x) else _json_str(repr(x))
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items())
        lines = (_json_str(k) + ": " + _json(v, inner) for k, v in items)
        return "{" + inner + ("," + inner).join(lines) + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = list(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            lines = map(float.__repr__, obj)  # the common table column
        else:
            lines = (_json(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(lines) + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


_json_str = json.encoder.encode_basestring_ascii


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_json(path, payload):
    _write(path, _json(payload) + "\n")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def load_problem(path, T_override=None) -> ProblemSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"problem: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"problem: invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("problem: top-level JSON value must be an object")
    if T_override is not None:
        raw = dict(raw)
        raw["T"] = T_override
    try:
        return ProblemSpec.from_dict(raw)
    except (ExprError, ProblemValidationError, ValueError, KeyError) as exc:
        raise ConfigError(f"problem: {exc}")


def _build_config(args) -> CheckConfig:
    if not (0 < args.eps_min < args.eps_max < math.inf):
        raise ConfigError(f"{args.command}: require 0 < eps-min < eps-max < inf")
    if args.n < 2:
        raise ConfigError(f"{args.command}: grid size n must be at least 2")
    return CheckConfig(n_t=args.n, eps_min=args.eps_min, eps_max=args.eps_max)


def _check_tolerances(args) -> None:
    if not (0 < args.rtol < math.inf and 0 < args.atol < math.inf):
        # a positive real: nan and inf are rejected too
        raise ConfigError(f"{args.command}: rtol and atol must be positive")


def _summary(args, line: str) -> None:
    print(line, file=sys.stdout if args.out else sys.stderr)


def _config_dict(args, extra=None):
    d = {"schema_version": SCHEMA_VERSION}
    skip = {"out", "command"}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        d[k] = v
    if extra:
        d.update(extra)
    return d


# ---------------------------------------------------------------------------
# check

_GAUGE_ROLE = {
    "u": "gauge u (coefficient/comparison criteria)",
    "v": "gauge v (weight criterion hypothesis set)",
    "lam": "gauge lambda (weight criterion hypothesis set)",
    "omega": "comparison function omega",
}


def _missing_gauges(problem: ProblemSpec, name: str) -> list:
    return [g for g in CRITERIA[name][0] if getattr(problem, g) is None]


def run_checks(problem: ProblemSpec, names, config: CheckConfig):
    """Shared by cmd_check and cmd_suite so their reports agree exactly."""
    reports = []
    for name in names:
        rep = CRITERIA[name][1](problem, config)
        rep.criterion = name
        reports.append(rep)
    return reports


def cmd_check(args) -> int:
    problems = []
    names = [s for s in (args.criteria or "").split(",") if s]
    if not names:
        problems.append("criteria: empty criteria list")
    for name in names:
        if name not in CRITERIA:
            problems.append(f"criteria: unknown criterion {name!r}")
    try:
        problem = load_problem(args.problem, args.T)
        config = _build_config(args)
    except ConfigError as exc:
        problems.extend(exc.messages)
        problem = config = None
    if problem is not None:
        for name in (n for n in names if n in CRITERIA):
            for g in _missing_gauges(problem, name):
                problems.append(f"criteria: {name} requires {_GAUGE_ROLE[g]} "
                                f"missing from {args.problem}")
    if problems:
        raise ConfigError(problems)
    reports = run_checks(problem, names, config)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_dict(args, {"problem_name": problem.name}),
        "reports": [r.to_dict() for r in reports],
    }
    _write_json(args.out, payload)
    for r in reports:
        _summary(args, f"{r.criterion}: {'pass' if r.overall else 'fail'}")
    return 0 if all(r.overall for r in reports) else 1


# ---------------------------------------------------------------------------
# reparam

def cmd_reparam(args) -> int:
    problem = load_problem(args.problem, args.T)
    if args.t_floor is not None and not (0 < args.t_floor < problem.T):
        raise ConfigError("reparam: need 0 < t-floor < T")
    if args.generalized_c is not None and not 0 < args.generalized_c < math.inf:
        raise ConfigError("reparam: need 0 < generalized-c < inf")
    if problem.lam is not None:
        v, lam = problem.v, problem.lam
    elif problem.u is not None:
        v, lam = criteria.reduce_to_constantin(problem.u)
    else:
        raise ConfigError("reparam: problem provides neither lambda nor u")

    try:
        rep = reparam_mod.build_tau(lam, problem.T, t_min=args.t_floor)
        diagnostics = {
            "tau_plus": rep.tau_plus,
            "tau_horizon": rep.tau_horizon,
            "t_min": rep.t_min,
        }
        diagnostics["fixed_point_residual"] = reparam_mod.verify_fixed_point(
            rep, lam)
        if v is not None:
            mid_tau = 0.5 * (rep.tau_minus + rep.tau_horizon)
            diagnostics["l1_identity_residual"] = reparam_mod.alpha_l1_check(
                rep, v, lam, mid_tau)
        if problem.lam is None:
            # u(t(tau)) = c*exp(-tau) holds for the table of lambda = u/u'
            diagnostics["exp_reparam_residual"] = \
                reparam_mod.exp_reparam_check(problem.u, rep)
    except (reparam_mod.ReparamError, IntegrandError) as exc:
        print(f"reparam: {exc}", file=sys.stderr)
        return 1
    if args.generalized_c is not None:
        c = args.generalized_c
        try:
            root = reparam_mod.solve_tau_exp_root(c)
            diagnostics["generalized_tau_plus"] = root
            diagnostics["generalized_tau_plus_residual"] = abs(
                root * math.exp(root) - 1.0 / c)
            grep = reparam_mod.generalized_reparam(
                problem.u if problem.u is not None else lam, c, T=problem.T)
            diagnostics["generalized_table_monotone"] = bool(
                np.all(np.diff(grep.rep.t_table) > 0))
        except (reparam_mod.ReparamError, BracketError,
                ConvergenceError) as exc:
            diagnostics["generalized_error"] = str(exc)

    if args.format == "csv":
        rows = list(zip(rep.t_table.tolist(), rep.tau_table.tolist()))
        _write_csv(args.out, ("t", "tau"), rows)
        for k, v_ in diagnostics.items():
            _summary(args, f"{k}: {v_}")
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": _config_dict(args, {"problem_name": problem.name}),
            "reports": [{
                "diagnostics": diagnostics,
                "table": {"t": rep.t_table.tolist(),
                          "tau": rep.tau_table.tolist()},
            }],
        }
        _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# solve / funnel

def cmd_solve(args) -> int:
    problem = load_problem(args.problem, args.T)
    t_floor = args.t_floor if args.t_floor is not None else 1e-6 * problem.T
    if not (0 < t_floor < problem.T):
        raise ConfigError("solve: need 0 < t-floor < T")
    t0 = args.t0 if args.t0 is not None else problem.T
    t1 = args.t1 if args.t1 is not None else t_floor
    if not all(map(math.isfinite, (t0, t1, args.x0))):
        raise ConfigError("solve: t0, t1 and x0 must be finite")
    # the solver never evaluates the singular endpoint t = 0
    if not (t0 > 0 and t1 > 0):
        raise ConfigError("solve: need t0 > 0 and t1 > 0")
    _check_tolerances(args)
    try:
        traj = solver_mod.integrate_ivp(problem.f, t0, args.x0, t1,
                                        rtol=args.rtol, atol=args.atol)
    except solver_mod.SolverDomainError as exc:
        # f is not finite at the start point
        print(f"solve: {exc}", file=sys.stderr)
        return 1
    rows = list(zip(traj.t.tolist(), traj.x.tolist(), traj.xdot.tolist(),
                    traj.step_errors.tolist()))
    _write_csv(args.out, ("t", "x", "xdot", "step_error"), rows)
    _summary(args, f"status: {traj.status}")
    return 0


def cmd_funnel(args) -> int:
    problem = load_problem(args.problem, args.T)
    t_floor = args.t_floor if args.t_floor is not None else 1e-6 * problem.T
    if args.n < 3 or not (0 < t_floor < problem.T):
        raise ConfigError("funnel: need n >= 3 and 0 < t-floor < T")
    _check_tolerances(args)
    rep = solver_mod.funnel_probe(problem.f, problem.T, n=args.n,
                                  t_floor=t_floor,
                                  rtol=args.rtol, atol=args.atol,
                                  x_bound=problem.x_bound)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_dict(args, {"problem_name": problem.name}),
        "reports": [funnel_report_dict(rep)],
    }
    _write_json(args.out, payload)
    _summary(args, f"basin_width: {rep.basin_width}")
    return 0


def funnel_report_dict(rep) -> dict:
    return {
        "kind": "funnel",
        "basin_width": rep.basin_width,
        "grid_spacing": rep.grid_spacing,
        "t_floor": rep.t_floor,
        "atol_reach": rep.atol_reach,
        "n_reaching": int(np.count_nonzero(rep.reaches_zero)),
        "terminal_values": rep.terminal_values.tolist(),
        "reaches_zero": [bool(b) for b in rep.reaches_zero],
        "statuses": list(rep.statuses),
        "spread_curve": [[a, b] for a, b in rep.spread_curve],
        "failures": [[x, msg] for x, msg in rep.failures],
    }


# ---------------------------------------------------------------------------
# suite

def run_suite(corpus_dir, config: CheckConfig, rtol=1e-6, atol=1e-9):
    """Check + funnel matrix over all *.json problems in a directory.  The
    funnel probe runs on 101 terminal values down to t = 1e-4 T, without
    forward spread legs: a row records only the basin width and the grid
    spacing."""
    paths = sorted(Path(corpus_dir).glob("*.json"))
    if not paths:
        raise ConfigError(f"suite: no problem files in {corpus_dir}")
    rows = []
    alarms = []
    for path in paths:
        row = {"file": path.name, "status": "ok", "checks": {},
               "expected": {}, "mismatches": []}
        try:
            raw = json.loads(path.read_text())
            problem = ProblemSpec.from_dict(raw)
            expect = raw.get("expect", {})
        except Exception as exc:
            row["status"] = "error"
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        row["problem"] = problem.name
        names = [n for n in CRITERIA if not _missing_gauges(problem, n)]
        any_pass = False
        try:
            reports = {rep.criterion: rep
                       for rep in run_checks(problem, names, config)}
            for name, rep in reports.items():
                row["checks"][name] = "pass" if rep.overall else "fail"
                any_pass = any_pass or rep.overall
            if "theorem1-reduced" in reports:
                eq = criteria.equivalence_suite(
                    problem, config, constantin=reports["constantin"],
                    reduced=reports["theorem1-reduced"])
                row["checks"]["equivalence"] = (
                    "pass" if eq.overall else "fail")
        except Exception as exc:
            row["status"] = "error"
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        try:
            fr = solver_mod.funnel_probe(
                problem.f, problem.T, n=101, t_floor=1e-4 * problem.T,
                rtol=rtol, atol=atol, x_bound=problem.x_bound,
                spread_levels=0)
            row["funnel_basin_width"] = fr.basin_width
            row["funnel_grid_spacing"] = fr.grid_spacing
            if any_pass and fr.basin_width > 10 * fr.grid_spacing:
                alarms.append({
                    "file": path.name,
                    "basin_width": fr.basin_width,
                    "grid_spacing": fr.grid_spacing,
                    "passing": [k for k, s in row["checks"].items()
                                if s == "pass"],
                })
        except Exception as exc:
            row["funnel_error"] = f"{type(exc).__name__}: {exc}"
        for crit, want in sorted(expect.items()):
            got = row["checks"].get(crit)
            row["expected"][crit] = want
            if got is not None and got != want:
                row["mismatches"].append(crit)
        rows.append(row)
    return rows, alarms


def cmd_suite(args) -> int:
    _check_tolerances(args)
    rows, alarms = run_suite(args.corpus, _build_config(args),
                             rtol=args.rtol, atol=args.atol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_dict(args),
        "reports": rows,
        "contradiction_alarms": alarms,
    }
    _write_json(args.out, payload)
    for row in rows:
        checks = " ".join(f"{k}={v}" for k, v in sorted(row["checks"].items()))
        _summary(args, f"{row['file']}: {row['status']} {checks}")
    if alarms:
        for a in alarms:
            print(f"contradiction alarm: {a['file']} basin_width="
                  f"{a['basin_width']}", file=sys.stderr)
        return 1
    mismatched = [r["file"] for r in rows if r["mismatches"]]
    if mismatched:
        print(f"expected-verdict mismatches: {', '.join(mismatched)}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odeuniq",
        description="Uniqueness-criterion checks, time reparametrizations, "
                    "and solver probes for singular IVPs x' + f(t,x) = 0.")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--problem": dict(required=True, help="JSON problem file"),
        "--corpus": dict(required=True, help="directory of *.json"),
        "--T": dict(type=float, help="override problem horizon T"),
        "--rtol": dict(type=float, default=1e-6),
        "--atol": dict(type=float, default=1e-9),
        "--t-floor": dict(type=float, help="lower end of the t range "
                          "(default: 1e-6 T; reparam: 1e-8 T)"),
        "--n": dict(type=int, default=CheckConfig.n_t, help="grid size"),
        "--eps-min": dict(type=float, default=CheckConfig.eps_min),
        "--eps-max": dict(type=float, default=CheckConfig.eps_max),
        "--criteria": dict(default="nagumo", help="comma list of "
                           f"{', '.join(CRITERIA)}"),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--generalized-c": dict(type=float, help="run the generalized "
                                "reparametrization with this c"),
        "--t0": dict(type=float, help="default: T"),
        "--t1": dict(type=float, help="default: t-floor"),
        "--x0": dict(type=float, default=0.0),
    }

    def add(name, summary, *names, **defaults):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", help="output path (default: stdout)")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(**defaults)  # a keyword overrides a default

    add("check", "run uniqueness criteria",
        "--problem", "--T", "--n", "--eps-min", "--eps-max", "--criteria")
    add("reparam", "build tau(t) and residuals",
        "--problem", "--T", "--t-floor", "--format", "--generalized-c")
    add("solve", "integrate the trajectory",
        "--problem", "--T", "--rtol", "--atol", "--t-floor",
        "--t0", "--t1", "--x0")
    add("funnel", "backward-reachability probe",
        "--problem", "--T", "--rtol", "--atol", "--t-floor", "--n", n=201)
    add("suite", "matrix run over a problem corpus",
        "--corpus", "--rtol", "--atol", "--n", "--eps-min", "--eps-max")

    return parser


# built once per process: parse_args fills a fresh Namespace on every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at each call, so a patched cmd_<name> is the one run
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
