"""odeuniq benchmark: time to verdict through the real CLI entry point.

    python3 perfbench/run.py --workload corpus-suite --seed 1 --seconds 50 --trace 0

Each item is one in-process, single-threaded ``odeuniq.cli.main`` call on a
generated problem file.  With ``--trace 0`` the run repeats untraced passes
over all items for as many as fit in ``--seconds`` seconds, at least two,
and reports the end-to-end metrics.  With ``--trace 1`` it makes one
untraced pass and two traced passes and reports the per-layer metrics.
Either way the outputs go through the correctness gate outside the timed region; then each input that
meets a known defect of the program runs once, and whether the defect still
shows is printed.  The last line of standard output is one JSON object.
See perfbench/README.md.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is imported

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5

sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def measure_setup(seed: int) -> list[float]:
    """Wall times of fresh processes that import odeuniq and write the
    inputs of ``seed``."""
    times = []
    for _ in range(SETUP_SAMPLES):
        dest = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
        try:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(HERE / "inputs.py"),
                            "--seed", str(seed), "--dest", str(dest)],
                           check=True, timeout=120)
            times.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(dest, ignore_errors=True)
    return times


def run_item(cli, item, out: Path, tracer=None):
    """One CLI call with its output redirected; returns an Outcome."""
    argv = item.argv + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    exc = None
    if tracer is not None:
        tracer.item = item.id
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except Exception as e:  # an uncaught exception is a failed item
            rc, exc = None, e
    elapsed = time.perf_counter() - t0
    body = out.read_bytes() if out.exists() else None
    digest = None if body is None else hashlib.sha256(body).hexdigest()
    return workloads.Outcome(rc, exc, stderr.getvalue(), body, digest, elapsed)


def run_pass(cli, items, dest: Path, tracer=None, keep=False):
    """One pass over ``items``; unless ``keep``, the outcomes drop their
    report, stderr and exception, so that memory does not grow with the
    number of passes."""
    dest.mkdir(parents=True)
    t0 = time.perf_counter()
    outcomes = [run_item(cli, item, dest / f"{item.id}.json", tracer)
                for item in items]
    wall = time.perf_counter() - t0
    if not keep:
        outcomes = [dataclasses.replace(o, exc=None, stderr="", body=None)
                    for o in outcomes]
    return outcomes, wall


def quantile(values, q: int) -> float:
    """The q-th percentile of ``values`` (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def traced_passes(cli, items, run_dir: Path):
    """Two passes with every layer traced; [(tracer, outcomes, wall)]."""
    import odeuniq
    from odeuniq import criteria, expr, quadrature, reparam, rootfind, solver
    modules = (odeuniq, cli, criteria, expr, quadrature, reparam, rootfind,
               solver)
    out = []
    for k in range(2):
        tracer = tracing.Tracer()
        tracer.install(modules, expr.Expression, reparam.Reparametrization)
        try:
            outcomes, wall = run_pass(cli, items, run_dir / f"traced{k}", tracer)
        finally:
            tracer.uninstall()
        out.append((tracer, outcomes, wall))
    return out


def report_defects(cli, workload: str, run_dir: Path) -> None:
    """Run each input that meets a known defect once, through the same
    gate, and print whether the defect still shows.  These inputs are not
    items: they count neither as attempted nor as failed."""
    problems = inputs.defect_problems(workload)
    inputs.write(problems, run_dir / "defect-inputs")
    probes = workloads.build_items(workload, problems)
    outcomes, _ = run_pass(cli, probes, run_dir / "defects", keep=True)
    failures = workloads.gate(workload, probes, outcomes)
    for probe in probes:
        if probe.id in failures:
            print(f"KNOWN DEFECT {probe.id} ({probe.problem.defect}): "
                  + "; ".join(failures[probe.id]))
        else:
            print(f"KNOWN DEFECT {probe.id} no longer shows "
                  f"({probe.problem.defect}): measure its input as an item")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "odeuniq").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no odeuniq source tree under {ROOT}", file=sys.stderr)
        return 2

    from odeuniq import cli

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return _run(cli, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(cli, args, run_dir: Path) -> int:
    setup = measure_setup(args.seed) if not args.trace else []
    problems = inputs.make_inputs(args.seed, run_dir / "inputs")
    items = workloads.build_items(args.workload, problems)

    passes = []  # (outcomes, wall seconds)
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, items, run_dir / f"pass{len(passes)}",
                               keep=not passes))
        # stop when one more pass would end past --seconds
        elapsed = time.perf_counter() - t_start
        if args.trace or (len(passes) >= 2 and
                          elapsed + passes[-1][1] > args.seconds):
            break

    traced = traced_passes(cli, items, run_dir) if args.trace else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = workloads.gate(args.workload, items, passes[0][0])
    reruns = ([(f"pass {k}", o) for k, (o, _) in enumerate(passes)][1:]
              + [(f"traced pass {k}", o) for k, (_, o, _) in enumerate(traced)])
    for label, outcomes in reruns:
        for item, first, other in zip(items, passes[0][0], outcomes):
            if first.digest != other.digest:
                failures.setdefault(item.id, []).append(
                    f"--out differs between pass 0 and {label}")
    if traced:
        counts = [tracing.deterministic_counts(t[0]) for t in traced]
        for item in items:
            a, b = counts[0].get(item.id), counts[1].get(item.id)
            if a != b:
                failures.setdefault(item.id, []).append(
                    f"work counts differ between traced passes: {a} vs {b}")

    n = len(items)
    print(f"workload {args.workload}: seed {args.seed}, {n} items, "
          f"{len(passes)} untraced pass(es)"
          + (f", {len(traced)} traced" if traced else ""))
    for item_id, reasons in failures.items():
        for reason in reasons:
            print(f"FAILED {item_id}: {reason}")
    failed_frac = len(failures) / n
    print(f"failed_frac {failed_frac:.4f} ratio ({len(failures)} of {n} items)")
    report_defects(cli, args.workload, run_dir)

    if args.trace:
        tracer, _, traced_wall = traced[0]
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.dump(spans_path)
        metrics = tracing.layer_metrics(tracer, traced_wall, passes[0][1])
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        pass_s = [wall for _, wall in passes]
        samples = [o.seconds for outcomes, _ in passes for o in outcomes]
        run_s = statistics.median(pass_s)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (run_s, "s"),
            "items_per_s": (n / run_s, "1/s"),
            "item_s.p50": (quantile(samples, 50), "s"),
            "item_s.p90": (quantile(samples, 90), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"setup samples {len(setup)}; run_s over {len(pass_s)} passes; "
              f"item_s over {len(samples)} item runs")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
