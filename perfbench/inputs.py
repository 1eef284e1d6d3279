"""Seeded problem files for the benchmark.

Every workload sees the 10 checked-in corpus problems plus five seeded
problems drawn from the corpus families.  The seed is the only thing that
varies the inputs; the program sees only the files written here.

``DEFECTS`` lists fixed inputs that meet a known defect of the program.
A workload's measured items must all succeed, so these are written and run
apart from them, as probes whose outcome is reported (see README.md).

Run as a script, this module is one set-up sample: it imports ``odeuniq``
and writes the inputs of one seed, so that its wall time from process
start to exit is one sample of the benchmark's ``setup_s``.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# Field family of each checked-in corpus problem.  Only the Peano-type
# family has a backward funnel wider than the terminal grid spacing.
CORPUS_FAMILIES = {
    "direct_gauges": "tpx",
    "exp_gauge": "zero",
    "linear": "tpx",
    "peano": "peano",
    "power_gauge": "tpx",
    "relaxed": "zero",
    "sqrt_gauge": "tpx",
    "tx": "tpx",
    "x_over_t": "x_over_t",
    "zero": "zero",
}


@dataclass
class Problem:
    """One problem file with what the correctness gate needs to know."""

    id: str
    family: str
    spec: dict
    text: str
    path: Path | None = None
    # --generalized-c of the reparam item; only defect probes set it
    generalized_c: float | None = None
    # the known defect this input meets, empty for a measured input
    defect: str = ""
    # reparam outcome at this commit: exit code and a stderr fragment
    reparam_exit: int = 0
    reparam_stderr: str = ""
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return f"{x:.4g}"


def _field(rng: random.Random, family: str) -> str:
    if family == "tpx":  # a*t^p*x: Lipschitz, like tx, linear, power_gauge
        return f"{_num(rng.uniform(0.5, 1.5))}*t^{_num(rng.uniform(0.0, 2.0))}*x"
    if family == "peano":
        # -c*|x|^alpha: the backward funnel reaches 0 from every
        # 0 < x_T <= ((1-alpha)*c*T)^(1/(1-alpha)), at least 0.25 on these
        # ranges, so the basin is wider than 10 grid spacings at n >= 101
        return (f"-{_num(rng.uniform(1.0, 2.0))}"
                f"*abs(x)^{_num(rng.uniform(0.3, 0.5))}")
    if family == "x_over_t":
        # b >= 1: at or past the equality case of Nagumo's 1/t bound, like
        # the corpus x_over_t.  The funnel's cost grows with b, so this item
        # is never cheaper than x_over_t and stays in the latency tail
        return f"{_num(rng.uniform(1.0, 1.5))}*x/t"
    if family == "zero":
        return "0"
    raise ValueError(family)


def _gauge(rng: random.Random) -> str:
    # q >= 1: for smaller q the L1 identity residual of `reparam` exceeds
    # its threshold (known defect, probed by defect_l1_sqrt_gauge)
    q = _num(rng.uniform(1.0, 2.0))
    return f"t^{q}" if rng.random() < 0.5 else f"t^{q}*exp(t)"


def _dump(spec: dict) -> str:
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


def seeded_problems(seed: int) -> list[Problem]:
    """Five problems: one gauge-u problem per field family and one direct
    (v, lambda) pair.

    omega is r throughout: with omega = r^beta, beta > 1, the suite meets
    two known defects (probed by defect_equivalence and defect_reverify).
    """
    rng = random.Random(seed)
    out = []
    for family in ("tpx", "peano", "x_over_t", "zero"):
        name = f"seed{seed}_{family}"
        spec = {"name": name, "f": _field(rng, family), "u": _gauge(rng),
                "omega": "r", "T": 1.0, "x_bound": 1.0}
        out.append(Problem(name, family, spec, _dump(spec)))
    name = f"seed{seed}_direct"
    # lambda = t^k with k <= 0.95: v/lambda = t^(m-k) stays clear of the
    # borderline-divergent H1 integral, whose cost varies tenfold, and
    # 1/lambda clear of k in about (0.972, 1), where build_tau runs for
    # minutes (a known defect, see README.md).  m >= k keeps the L1
    # identity's truncated tail, int_0^1e-8 t^(m-k), below its threshold
    k = rng.uniform(0.5, 0.95)
    spec = {"name": name, "f": _field(rng, "tpx"),
            "v": f"t^{_num(rng.uniform(k, 1.5))}", "lambda": f"t^{_num(k)}",
            "omega": "r", "T": 1.0, "x_bound": 1.0}
    out.append(Problem(name, "tpx", spec, _dump(spec)))
    return out


def _corpus_problem(stem: str, corpus_dir: Path) -> Problem:
    text = (corpus_dir / f"{stem}.json").read_text()
    spec = json.loads(text)
    prob = Problem(stem, CORPUS_FAMILIES.get(stem, "unknown"), spec, text,
                   expect=dict(spec.get("expect", {})))
    if stem == "exp_gauge":
        # documented outcome: u/u' is 0/0 where exp(-1/t) underflows
        prob.reparam_exit, prob.reparam_stderr = 1, "lambda not finite"
    return prob


def corpus_problems(corpus_dir: Path) -> list[Problem]:
    return [_corpus_problem(path.stem, corpus_dir)
            for path in sorted(corpus_dir.glob("*.json"))]


class Defect(NamedTuple):
    id: str
    source: str | dict  # a corpus stem, or the f, u and omega of a problem
    family: str
    generalized_c: float | None
    what: str


# Known defects of the program, per workload, each with an input that
# meets it.  README.md describes them.
DEFECTS = {
    "corpus-suite": [
        Defect("defect_equivalence", {"f": "0", "u": "t", "omega": "r^1.5"},
               "zero", None, "equivalence fails for f = 0 with omega = r^beta, "
               "beta > 1"),
        Defect("defect_reverify",
               {"f": "1.413*x/t", "u": "t^0.4667", "omega": "r^1.948"},
               "x_over_t", None, "reverify raises IntegrandError on a "
               "theorem1-reduced H2 witness"),
    ],
    "reparam-tables": [
        Defect("defect_l1_linear", "linear", "tpx", None,
               "l1_identity_residual is the truncated tail, 1e-2"),
        Defect("defect_l1_sqrt_gauge", "sqrt_gauge", "tpx", None,
               "l1_identity_residual is the truncated tail, 1e-4"),
        Defect("defect_power_gauge_c10", "power_gauge", "tpx", 10.0,
               "generalized_reparam raises BracketError"),
        Defect("defect_power_gauge_c7", "power_gauge", "tpx", 7.0,
               "generalized_reparam raises ReparamError: table not "
               "strictly monotone"),
        Defect("defect_direct_gauges_c4.841", "direct_gauges", "tpx", 4.841,
               "generalized_reparam raises BracketError at its first node"),
    ],
}


def defect_problems(workload: str, corpus_dir: Path = ROOT / "corpus"
                    ) -> list[Problem]:
    out = []
    for d in DEFECTS[workload]:
        if isinstance(d.source, str):
            prob = _corpus_problem(d.source, corpus_dir)
            prob.id = d.id
        else:
            spec = {"name": d.id, **d.source, "T": 1.0, "x_bound": 1.0}
            prob = Problem(d.id, d.family, spec, _dump(spec))
        prob.generalized_c, prob.defect = d.generalized_c, d.what
        out.append(prob)
    return out


def write(problems: list[Problem], dest: Path) -> None:
    """Write each problem to ``dest/<id>/<id>.json``: one directory per
    problem, so that ``odeuniq suite`` can run on it alone."""
    for prob in problems:
        folder = dest / prob.id
        folder.mkdir(parents=True, exist_ok=True)
        prob.path = folder / f"{prob.id}.json"
        prob.path.write_text(prob.text)


def make_inputs(seed: int, dest: Path, corpus_dir: Path = ROOT / "corpus"
                ) -> list[Problem]:
    """Write the measured problems of ``seed`` under ``dest``.  Corpus
    files are copied unchanged."""
    problems = corpus_problems(corpus_dir) + seeded_problems(seed)
    write(problems, dest)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import odeuniq.cli  # noqa: F401  - the import is part of set-up
    make_inputs(args.seed, Path(args.dest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
