"""``tools/report_digests.py``: ``--compare`` on small hand-written digest
files, and ``--timings`` on a two-invocation matrix."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def _record(exit=0, stdout="a", stderr="b", out="c"):
    return {"exit": exit, "stdout": stdout, "stderr": stderr, "out": out}


OLD = {"check --problem p.json --criteria nagumo": _record(),
       "reparam --problem p.json": _record(out=None),
       "suite --corpus corpus": _record(exit=1)}


def _compare(tmp_path, new):
    for name, digests in (("old.json", OLD), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(digests))
    return subprocess.run(
        [sys.executable, str(TOOL), "--compare", str(tmp_path / "old.json"),
         str(tmp_path / "new.json")], capture_output=True, text=True,
        timeout=60)


def test_equal_files_exit_0(tmp_path):
    run = _compare(tmp_path, dict(OLD))
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0 of 3 invocations differ\n"


@pytest.mark.parametrize("argv,new,fields", [
    ("suite --corpus corpus", _record(exit=0), "exit"),
    ("suite --corpus corpus", _record(exit="ValueError"), "exit"),
    ("check --problem p.json --criteria nagumo", _record(stdout="z"),
     "stdout"),
    ("reparam --problem p.json", _record(out="c"), "out"),
    ("check --problem p.json --criteria nagumo",
     _record(stderr="y", out="x"), "out, stderr"),
])
def test_a_differing_record_is_printed(tmp_path, argv, new, fields):
    run = _compare(tmp_path, {**OLD, argv: new})
    assert run.returncode == 1, run.stderr
    assert run.stdout == f"{argv}: {fields}\n1 of 3 invocations differ\n"


def test_an_invocation_in_one_file_is_printed(tmp_path):
    # one invocation only in the old file, one only in the new
    new = {k: v for k, v in OLD.items() if k != "reparam --problem p.json"}
    new["funnel --problem p.json"] = _record()
    run = _compare(tmp_path, new)
    assert run.returncode == 1, run.stderr
    assert run.stdout == ("funnel --problem p.json: only in one file\n"
                          "reparam --problem p.json: only in one file\n"
                          "2 of 4 invocations differ\n")


def test_timings_go_to_their_own_file(tmp_path, monkeypatch):
    # two runs of a small matrix: each writes every invocation's seconds to
    # its timings file, and the digest files, which hold no time, are equal
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argvs = [["check", "--problem", "corpus/tx.json", "--criteria", "nagumo"],
             ["reparam", "--problem", "corpus/tx.json"]]
    monkeypatch.setattr(tool, "SEEDS", ())
    monkeypatch.setattr(tool, "matrix", lambda dirs: argvs)
    for run in ("a", "b"):
        assert tool.main([str(tmp_path / f"{run}.json"), "--timings",
                          str(tmp_path / f"{run}_times.json")]) == 0
    keys = {" ".join(argv) for argv in argvs}
    digests = json.loads((tmp_path / "a.json").read_text())
    assert digests.keys() == keys
    assert all(record["exit"] == 0 for record in digests.values())
    for run in ("a", "b"):
        times = json.loads((tmp_path / f"{run}_times.json").read_text())
        assert times.keys() == keys
        assert all(isinstance(s, float) and s > 0.0 for s in times.values())
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()
    assert tool.main(["--compare", str(tmp_path / "a.json"),
                      str(tmp_path / "b.json")]) == 0
