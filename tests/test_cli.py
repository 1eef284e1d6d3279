"""Command line interface: exit codes, output formats, determinism."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import odeuniq
from odeuniq import cli, criteria
from odeuniq.cli import main
from odeuniq.criteria import CheckConfig, check_nagumo, ProblemSpec

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
LINEAR = {"f": "x", "u": "t^(1/4)*exp(t)", "name": "linear"}
TX = {"f": "t*x", "u": "t", "omega": "r", "name": "tx"}
X_OVER_T = {"f": "x/t", "name": "x_over_t"}


@pytest.fixture
def problem_file(tmp_path):
    def write(payload, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


# ---------------------------------------------------------------------------
# check

def test_check_pass_exit_zero(problem_file, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["check", "--problem", problem_file(TX),
                 "--criteria", "nagumo", "--out", out])
    assert code == 0
    assert "nagumo: pass" in capsys.readouterr().out
    payload = json.loads(open(out).read())
    assert payload["schema_version"] == "1.0"
    assert payload["reports"][0]["overall"] is True


def test_check_fail_exit_one(problem_file, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["check", "--problem", problem_file(X_OVER_T),
                 "--criteria", "nagumo", "--out", out])
    assert code == 1
    assert "nagumo: fail" in capsys.readouterr().out


def test_check_unknown_criterion_exit_two(problem_file, capsys):
    code = main(["check", "--problem", problem_file(TX),
                 "--criteria", "nagumo,frobnicate"])
    assert code == 2
    assert "unknown criterion" in capsys.readouterr().err


def test_check_empty_criteria_exit_two(problem_file, capsys):
    code = main(["check", "--problem", problem_file(TX), "--criteria", ""])
    assert code == 2
    assert "empty criteria" in capsys.readouterr().err


def test_check_missing_gauge_listed(problem_file, capsys):
    code = main(["check", "--problem", problem_file(X_OVER_T),
                 "--criteria", "constantin"])
    assert code == 2
    err = capsys.readouterr().err
    assert "constantin" in err and "config error" in err


def test_check_missing_file_exit_two(tmp_path, capsys):
    code = main(["check", "--problem", str(tmp_path / "nope.json"),
                 "--criteria", "nagumo"])
    assert code == 2


def test_check_all_config_errors_reported_together(problem_file, capsys):
    code = main(["check", "--problem", problem_file(X_OVER_T),
                 "--criteria", "constantin,athanassov,bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("config error") >= 3


@pytest.mark.parametrize("flag,value", [("--eps-min", "nan"),
                                        ("--eps-max", "nan"),
                                        ("--eps-max", "inf")])
def test_check_eps_range_exit_two(problem_file, capsys, flag, value):
    code = main(["check", "--problem", problem_file(TX),
                 "--criteria", "theorem1-reduced", flag, value])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_check_h2_domain_error_writes_report(problem_file, tmp_path, capsys):
    # omega(eps*v)/lambda is nan where eps*t < 2^-30
    out = str(tmp_path / "report.json")
    code = main(["check", "--problem", problem_file(
        {"f": "0", "u": "t", "omega": "r*sqrt(r - 2^-30)"}),
        "--criteria", "theorem1-reduced", "--out", out])
    assert code == 1
    assert "theorem1-reduced: fail" in capsys.readouterr().out
    (rep,) = json.loads(open(out).read())["reports"]
    h2 = next(h for h in rep["hypotheses"] if h["name"] == "H2_osgood_scaled")
    assert h2["witness"]["kind"] == "domain_error"


def test_check_report_matches_library(problem_file, tmp_path):
    out = str(tmp_path / "report.json")
    main(["check", "--problem", problem_file(TX),
          "--criteria", "nagumo", "--out", out])
    payload = json.loads(open(out).read())
    lib = check_nagumo(ProblemSpec.from_dict(TX), CheckConfig()).to_dict()
    assert payload["reports"][0] == cli._sanitize(lib)


def test_check_deterministic_bytes(problem_file, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["check", "--problem", problem_file(TX),
            "--criteria", "nagumo,athanassov,constantin"]
    main(argv + ["--out", a])
    main(argv + ["--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


# ---------------------------------------------------------------------------
# reparam

def test_reparam_diagnostics(problem_file, tmp_path):
    out = str(tmp_path / "rep.json")
    code = main(["reparam", "--problem", problem_file(TX), "--out", out])
    assert code == 0
    d = json.loads(open(out).read())["reports"][0]["diagnostics"]
    assert d["fixed_point_residual"] <= 1e-7
    assert d["l1_identity_residual"] <= 1e-7
    assert d["exp_reparam_residual"] <= 1e-9
    assert d["tau_plus"] == "inf"


def test_reparam_csv_table(problem_file, tmp_path):
    out = str(tmp_path / "rep.csv")
    code = main(["reparam", "--problem", problem_file(TX),
                 "--format", "csv", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,tau"
    mid = lines[len(lines) // 2]
    t_mid, tau_mid = map(float, mid.split(","))
    assert tau_mid == pytest.approx(-math.log(t_mid), rel=1e-9)
    # formatting is float-faithful: parsing the text recovers the exact value
    assert cli._fmt(t_mid) == mid.split(",")[0]


def test_reparam_generalized_root_reported(problem_file, tmp_path):
    out = str(tmp_path / "rep.json")
    code = main(["reparam", "--problem", problem_file({"f": "0", "u": "t"}),
                 "--generalized-c", "1.0", "--out", out])
    assert code == 0
    d = json.loads(open(out).read())["reports"][0]["diagnostics"]
    assert d["generalized_tau_plus"] == pytest.approx(0.5671432904097838,
                                                      abs=1e-10)
    assert d["generalized_tau_plus_residual"] <= 1e-12
    assert "generalized_error" in d  # c = 1 has no positive branch


def test_reparam_generalized_large_c_monotone(problem_file, tmp_path):
    out = str(tmp_path / "rep.json")
    code = main(["reparam", "--problem", problem_file({"f": "0", "u": "t"}),
                 "--generalized-c", "10.0", "--out", out])
    assert code == 0
    d = json.loads(open(out).read())["reports"][0]["diagnostics"]
    assert d["generalized_table_monotone"] is True


@pytest.mark.parametrize("stem,c,error", [
    ("power_gauge", "10", "no sign change on"),
    ("power_gauge", "7", "reparametrization table is not strictly monotone"),
    ("direct_gauges", "4.841", "no sign change on"),
])
def test_reparam_generalized_failure_reported(tmp_path, stem, c, error):
    out = str(tmp_path / "rep.json")
    code = main(["reparam", "--problem", str(CORPUS / f"{stem}.json"),
                 "--generalized-c", c, "--out", out])
    assert code == 0
    d = json.loads(open(out).read())["reports"][0]["diagnostics"]
    assert d["generalized_error"].startswith(error)


@pytest.mark.parametrize("t_floor", ["0", "-1", "nan", "2"])
def test_reparam_t_floor_outside_horizon_exit_two(problem_file, capsys,
                                                  t_floor):
    code = main(["reparam", "--problem", problem_file(TX),
                 "--t-floor", t_floor])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_reparam_no_gauge_exit_two(problem_file, capsys):
    code = main(["reparam", "--problem", problem_file(X_OVER_T)])
    assert code == 2


# ---------------------------------------------------------------------------
# solve / funnel

def test_solve_csv(problem_file, tmp_path):
    out = str(tmp_path / "traj.csv")
    code = main(["solve", "--problem", problem_file(LINEAR),
                 "--t0", "0", "--x0", "1", "--t1", "1",
                 "--format", "csv", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,x,xdot,step_error"
    last = [float(s) for s in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(math.exp(-1.0), rel=1e-5)


def test_funnel_json(problem_file, tmp_path):
    out = str(tmp_path / "funnel.json")
    code = main(["funnel", "--problem",
                 problem_file({"f": "-sqrt(abs(x))", "name": "peano"}),
                 "--n", "101", "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())["reports"][0]
    assert rep["basin_width"] >= 0.2
    assert rep["grid_spacing"] == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# suite

def test_suite_on_corpus(tmp_path, capsys):
    out = str(tmp_path / "suite.json")
    code = main(["suite", "--corpus", "corpus", "--out", out])
    assert code == 0
    payload = json.loads(open(out).read())
    rows = payload["reports"]
    assert len(rows) == 10
    assert not payload["contradiction_alarms"]


def test_suite_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["suite", "--corpus", "corpus", "--out", a])
    main(["suite", "--corpus", "corpus", "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_suite_empty_corpus_exit_two(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["suite", "--corpus", str(empty),
                 "--out", str(tmp_path / "s.json")])
    assert code == 2


def test_suite_isolates_broken_problem(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "good.json").write_text(json.dumps(TX))
    (corpus / "broken.json").write_text("{ not json")
    out = str(tmp_path / "s.json")
    code = main(["suite", "--corpus", str(corpus), "--out", out])
    rows = json.loads(open(out).read())["reports"]
    by_file = {r["file"]: r for r in rows}
    assert by_file["broken.json"]["status"] == "error"
    assert by_file["good.json"]["status"] == "ok"
    assert code == 0  # parse errors are isolated, not alarms


def test_suite_expect_mismatch_exit_one(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    wrong = dict(TX, expect={"nagumo": False})
    (corpus / "tx.json").write_text(json.dumps(wrong))
    code = main(["suite", "--corpus", str(corpus),
                 "--out", str(tmp_path / "s.json")])
    assert code == 1


def test_suite_checks_each_criterion_once(tmp_path, monkeypatch):
    # equivalence_suite reuses the constantin and theorem1-reduced reports
    calls = []
    for name in ("check_constantin", "check_theorem_main"):
        real = getattr(criteria, name)

        def counted(p, c=None, real=real, name=name):
            calls.append(name)
            return real(p, c)

        monkeypatch.setattr(criteria, name, counted)
    (tmp_path / "tx.json").write_text(json.dumps(TX))
    rows, _ = cli.run_suite(tmp_path, CheckConfig())
    assert rows[0]["checks"]["equivalence"] == "pass"
    assert sorted(calls) == ["check_constantin", "check_theorem_main"]


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; a fresh interpreter shows what
    # importing the command line interface pulls in
    src = str(Path(odeuniq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import odeuniq.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
