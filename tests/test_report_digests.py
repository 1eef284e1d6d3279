"""``tools/report_digests.py --compare`` on small hand-written digest files."""
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
