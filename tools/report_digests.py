"""Digest every report of a fixed command matrix, to compare two versions.

Usage: python tools/report_digests.py OUT.json [--timings TIMES.json]
       python tools/report_digests.py --compare OLD.json NEW.json

Runs ``odeuniq.cli.main`` in process, from whichever ``odeuniq`` is on
PYTHONPATH, over the checked-in corpus, the seeded problems of
``perfbench/inputs.py --seed 1, 2, 3`` and the fixed problems of ``EXTRA``,
which take heavy panel redo or fail.  For each invocation it records the
exit code (or the name of an escaping exception) and the sha256 of stdout,
stderr and the ``--out`` file, and writes them to OUT.json.  Run
it once with each version's ``src`` on PYTHONPATH and diff the two files:
equal digests mean byte-identical reports.  All inputs and reports live
in a temporary directory, addressed by paths relative to it, so that the
paths echoed in the reports are the same on every run.

With ``--timings`` it also writes each invocation's wall seconds to
TIMES.json, keyed as in OUT.json.  Times stay out of OUT.json, so two
digest files of the same reports are equal however long the runs took.

With ``--compare`` it reads two digest files instead and prints each
invocation whose exit code or any digest differs, or that only one file
has; it exits 1 if any does, 0 otherwise.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
GENERALIZED_C = ("1", "3.5", "4.841", "7", "10", "50")
# tolerances at which the solver rejects many steps
TIGHT = ["--rtol", "1e-10", "--atol", "1e-13"]
# one directory of fixed problems: a slow tail whose H2 members redo base
# panels down to the underflow of lambda, and the two corpus-suite inputs
# that meet a known defect (perfbench/inputs.py's DEFECTS)
EXTRA = {
    "slow_tail": {"f": "0", "u": "t", "v": "t", "lambda": "t^1.99",
                  "omega": "r"},
    "defect_equivalence": {"f": "0", "u": "t", "omega": "r^1.5"},
    "defect_reverify": {"f": "1.413*x/t", "u": "t^0.4667",
                        "omega": "r^1.948"},
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> dict:
    """One in-process invocation with ``--out out``: exit code and digests."""
    from odeuniq import cli  # only digesting needs the package
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--out", "out"])
        except Exception as exc:  # a traceback at one version is a result
            code = type(exc).__name__
    written = Path("out")
    record = {"exit": code,
              "stdout": _digest(out.getvalue().encode()),
              "stderr": _digest(err.getvalue().encode()),
              "out": _digest(written.read_bytes()) if written.exists() else None}
    written.unlink(missing_ok=True)
    return record


def matrix(dirs: list[str]) -> list[list[str]]:
    """The invocations over the problem files of ``dirs``: the corpus copy
    in full, and of each seed directory the files the corpus lacks."""
    from odeuniq import cli
    corpus = {p.name for p in (ROOT / "corpus").glob("*.json")}
    files = sorted(str(p) for p in Path(dirs[0]).glob("*.json"))
    for d in dirs[1:]:
        files += sorted(str(p) for p in Path(d).glob("*.json")
                        if p.name not in corpus)
    runs = []
    for f in files:
        runs += [["check", "--problem", f, "--criteria", name]
                 for name in cli.CRITERIA]
        runs += [["funnel", "--problem", f], ["solve", "--problem", f],
                 ["funnel", "--problem", f, *TIGHT],
                 ["solve", "--problem", f, *TIGHT],
                 ["reparam", "--problem", f],
                 ["reparam", "--problem", f, "--format", "csv"]]
        runs += [["reparam", "--problem", f, "--generalized-c", c]
                 for c in GENERALIZED_C]
    return runs + [["suite", "--corpus", d] for d in dirs]


def compare(old_path: str, new_path: str) -> int:
    """Print every invocation whose record differs between two digest
    files, with the fields that differ; 1 if any does."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    differ = 0
    for argv_ in sorted(old.keys() | new.keys()):
        a, b = old.get(argv_), new.get(argv_)
        if a == b:
            continue
        differ += 1
        fields = ("only in one file" if a is None or b is None else
                  ", ".join(k for k in sorted(a.keys() | b.keys())
                            if a.get(k) != b.get(k)))
        print(f"{argv_}: {fields}")
    print(f"{differ} of {len(old.keys() | new.keys())} invocations differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    timings = None
    if len(argv) == 3 and argv[1] == "--timings":
        argv, timings = argv[:1], Path(argv[2]).resolve()
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    dest = Path(argv[0]).resolve()
    results, seconds = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "corpus", Path(tmp) / "corpus")
        dirs = ["corpus"]
        for seed in SEEDS:
            # inputs.py writes one directory per problem; suite reads one flat
            raw, flat = Path(tmp) / f"raw{seed}", Path(tmp) / f"seed{seed}"
            subprocess.run([sys.executable, str(ROOT / "perfbench" / "inputs.py"),
                            "--seed", str(seed), "--dest", str(raw)], check=True)
            flat.mkdir()
            for f in raw.glob("*/*.json"):
                shutil.copy(f, flat / f.name)
            dirs.append(flat.name)
        extra = Path(tmp) / "extra"
        extra.mkdir()
        for name, spec in EXTRA.items():
            spec = {"name": name, **spec, "T": 1.0, "x_bound": 1.0}
            (extra / f"{name}.json").write_text(json.dumps(spec, indent=2))
        dirs.append(extra.name)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv_ in matrix(dirs):
                key, t0 = " ".join(argv_), time.perf_counter()
                results[key] = run(argv_)
                seconds[key] = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
    dest.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    if timings is not None:
        timings.write_text(json.dumps(seconds, indent=1, sort_keys=True)
                           + "\n")
    print(f"{len(results)} invocations -> {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
