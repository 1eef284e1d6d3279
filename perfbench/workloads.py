"""The workloads: which CLI call makes one item, and the correctness gate
each item's output must pass.

An item fails the gate when its CLI call raises, or when its exit code or
its ``--out`` report is not what the program promises for that input.
"""
from __future__ import annotations

import json
import traceback
from dataclasses import dataclass

from inputs import DEFECTS, Problem

NAMES = ("corpus-suite", "reparam-tables")

# thresholds of tests/test_reparam.py
FIXED_POINT_MAX = 1e-7
L1_IDENTITY_MAX = 1e-7
EXP_REPARAM_MAX = 1e-9
# run_suite's contradiction-alarm rule: a funnel wider than this many grid
# spacings is evidence of non-uniqueness
BASIN_SPACINGS = 10


@dataclass
class Item:
    id: str
    argv: list
    problem: Problem


@dataclass
class Outcome:
    rc: int | None
    exc: BaseException | None
    stderr: str
    body: bytes | None   # the --out file, None when it was not written
    digest: str | None   # sha256 of body
    seconds: float


def build_items(workload: str, problems: list[Problem]) -> list[Item]:
    # corpus problems that meet a known defect in this workload run only
    # as its probes
    probed = {d.source for d in DEFECTS[workload]
              if isinstance(d.source, str) and d.generalized_c is None}
    items = []
    for p in problems:
        if p.id in probed:
            continue
        if workload == "corpus-suite":
            argv = ["suite", "--corpus", str(p.path.parent)]
        elif workload == "reparam-tables":
            if not ({"u", "lambda"} & p.spec.keys()):
                continue
            argv = ["reparam", "--problem", str(p.path)]
            if p.generalized_c is not None:
                argv += ["--generalized-c", repr(p.generalized_c)]
        else:
            raise ValueError(workload)
        items.append(Item(p.id, argv, p))
    return items


def _raised(exc: BaseException) -> str:
    calls = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
    return (f"uncaught {type(exc).__name__} in {' > '.join(calls[1:])}: "
            f"{str(exc)[:120]}")


def gate(workload: str, items: list[Item], outcomes: list[Outcome]) -> dict:
    """Item id -> list of reasons, for every item that fails the gate."""
    check = {"corpus-suite": _suite_reasons,
             "reparam-tables": _reparam_reasons}[workload]
    failures = {}
    for item, out in zip(items, outcomes):
        reasons = [_raised(out.exc)] if out.exc is not None else check(item, out)
        if reasons:
            failures[item.id] = reasons
    return failures


def _suite_reasons(item: Item, out: Outcome) -> list[str]:
    from odeuniq.cli import run_checks
    from odeuniq.criteria import (CheckConfig, ProblemSpec,
                                  reduce_to_constantin, reverify)
    if out.rc != 0 or out.body is None:
        return [f"exit code {out.rc}: {out.stderr.strip()[:200]}"]
    payload = json.loads(out.body)
    reasons = [f"contradiction alarm: {a}" for a in payload["contradiction_alarms"]]
    (row,) = payload["reports"]
    if row["status"] != "ok" or "funnel_error" in row:
        reasons.append(f"error row: {row.get('error') or row.get('funnel_error')}")
        return reasons
    wide = row["funnel_basin_width"] > BASIN_SPACINGS * row["funnel_grid_spacing"]
    if wide != (item.problem.family == "peano"):
        reasons.append(f"funnel basin_width {row['funnel_basin_width']} does "
                       f"not match the {item.problem.family} family")
    checks = row["checks"]
    for crit, want in sorted(item.problem.expect.items()):
        if checks.get(crit) != want:
            reasons.append(f"{crit} is {checks.get(crit)}, expected {want}")
    if checks.get("equivalence", "pass") != "pass":
        reasons.append("equivalence fails")
    failing = [c for c, v in sorted(checks.items())
               if v == "fail" and c != "equivalence"]
    if failing:
        config = CheckConfig()
        spec = {k: v for k, v in item.problem.spec.items()
                if k not in ("expect", "justification", "generalized_c")}
        problem = ProblemSpec.from_dict(spec)
        for rep in run_checks(problem, failing, config):
            target = problem
            if rep.criterion == "theorem1-reduced":
                v, lam = reduce_to_constantin(problem.u)
                target = ProblemSpec(f=problem.f, u=problem.u, v=v, lam=lam,
                                     omega=problem.omega, T=problem.T,
                                     x_bound=problem.x_bound, name=problem.name)
            try:
                ok = reverify(target, config, rep)
            except Exception as exc:
                reasons.append(f"{rep.criterion}: reverify raised "
                               f"{type(exc).__name__}: {exc}")
                continue
            if not ok:
                reasons.append(f"{rep.criterion}: a failing witness does not "
                               f"re-verify")
    return reasons


def _reparam_reasons(item: Item, out: Outcome) -> list[str]:
    p = item.problem
    if out.rc != p.reparam_exit:
        return [f"exit code {out.rc}, expected {p.reparam_exit}: "
                f"{out.stderr.strip()[:200]}"]
    if p.reparam_exit != 0:
        if p.reparam_stderr not in out.stderr:
            return [f"stderr lacks {p.reparam_stderr!r}: {out.stderr.strip()[:200]}"]
        return []
    diag = json.loads(out.body)["reports"][0]["diagnostics"]
    reasons = []
    for key, limit in (("fixed_point_residual", FIXED_POINT_MAX),
                       ("l1_identity_residual", L1_IDENTITY_MAX),
                       ("exp_reparam_residual", EXP_REPARAM_MAX)):
        value = diag.get(key)
        if value is not None and not (isinstance(value, float) and value <= limit):
            reasons.append(f"{key} {value} > {limit}")
    if p.generalized_c is None:
        return reasons
    if "generalized_error" in diag:
        reasons.append(f"generalized_error: {diag['generalized_error']}")
    elif diag.get("generalized_table_monotone") is not True:
        reasons.append("generalized table not monotone")
    return reasons
