"""Command line interface: exit codes, output formats, determinism."""
import json
import math
import os
import subprocess
import sys
import time
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
    assert payload["schema_version"] == "1.1"
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


def test_reparam_steep_gauge_ends(problem_file, tmp_path):
    # lambda = t^1.99: the table segments near t_min hold about 1e6, and an
    # absolute tolerance ran every lane to its panel budget, so the command
    # hung; a fresh interpreter with a timeout keeps a regression bounded
    prob = problem_file({"name": "steep", "f": "0", "u": "t", "v": "t",
                         "lambda": "t^1.99", "omega": "r"})
    out = tmp_path / "rep.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(odeuniq.__file__).resolve().parent.parent)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from odeuniq.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "reparam", "--problem", prob,
         "--out", str(out)], env=env, capture_output=True, text=True,
        timeout=30)
    assert time.perf_counter() - start < 5.0
    assert run.returncode == 0, run.stderr
    d = json.loads(out.read_text())["reports"][0]["diagnostics"]
    assert d["tau_plus"] == "inf"
    assert d["fixed_point_residual"] <= 1e-6
    assert d["l1_identity_residual"] <= 1e-6


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


# placing targets in t failed on these: a bracket without a sign change
# (power_gauge at c = 10, direct_gauges at c = 4.841) and a table that is
# not strictly monotone (power_gauge at c = 7); at c = 1e308 the peak of h,
# near 1e-154, lay beyond 200 halvings of [0, 1]
@pytest.mark.parametrize("stem,c", [
    ("power_gauge", "10"),
    ("power_gauge", "7"),
    ("direct_gauges", "4.841"),
    ("tx", "1e308"),
])
def test_reparam_generalized_table_built(tmp_path, stem, c):
    out = str(tmp_path / "rep.json")
    code = main(["reparam", "--problem", str(CORPUS / f"{stem}.json"),
                 "--generalized-c", c, "--out", out])
    assert code == 0
    d = json.loads(open(out).read())["reports"][0]["diagnostics"]
    assert d["generalized_table_monotone"] is True
    assert "generalized_error" not in d


def test_reparam_generalized_nonfinite_gauge_reported(problem_file, tmp_path):
    rows = [
        # u is 0*inf = nan at the inversion's floor t = 1e-12
        ({"f": "0", "u": "t + 0*exp(1/t)", "v": "t", "lambda": "t"}, "10",
         "gauge u = (t+(0.0*exp((1.0/t)))) is not finite at t_floor = 1e-12"),
        # the root of tau*exp(tau) = 1/c, 684.2, lies past the bracket's
        # doubling to 1024, where exp overflows
        ({"f": "0", "u": "t"}, "1e-300",
         "degenerate generalized reparametrization: c*exp(-tau) - 1/tau is "
         "never positive for c=1e-300 (requires c > e)"),
    ]
    out = str(tmp_path / "rep.json")
    for spec, c, error in rows:
        code = main(["reparam", "--problem", problem_file(spec),
                     "--generalized-c", c, "--out", out])
        assert code == 0
        d = json.loads(open(out).read())["reports"][0]["diagnostics"]
        assert d["generalized_error"] == error
        assert "generalized_table_monotone" not in d


@pytest.mark.parametrize("stem", ["linear", "sqrt_gauge"])
def test_reparam_l1_identity_truncated_at_horizon(tmp_path, stem):
    # both sides stop at the table's horizon; with the right side taken
    # from 0+ the residual was the tail int_0+^t_min v/lambda, 1e-2 and 1e-4
    out = str(tmp_path / "rep.json")
    code = main(["reparam", "--problem", str(CORPUS / f"{stem}.json"),
                 "--out", out])
    assert code == 0
    d = json.loads(open(out).read())["reports"][0]["diagnostics"]
    assert d["l1_identity_residual"] <= 1e-9


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
                 "--t0", "0.5", "--x0", "1", "--t1", "1", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,x,xdot,step_error"
    last = [float(s) for s in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(math.exp(-0.5), rel=1e-5)


def test_funnel_json(problem_file, tmp_path):
    out = str(tmp_path / "funnel.json")
    code = main(["funnel", "--problem",
                 problem_file({"f": "-sqrt(abs(x))", "name": "peano"}),
                 "--n", "101", "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())["reports"][0]
    assert rep["basin_width"] >= 0.2
    assert rep["grid_spacing"] == pytest.approx(0.02)


@pytest.mark.parametrize("command,flags,message", [
    ("solve", ["--rtol", "0"], "solve: rtol and atol must be positive"),
    ("funnel", ["--n", "2"], "funnel: need n >= 3 and 0 < t-floor < T"),
    ("solve", ["--t-floor", "-1"], "solve: need 0 < t-floor < T"),
    ("solve", ["--t-floor", "0"], "solve: need 0 < t-floor < T"),
    ("solve", ["--t-floor", "2"], "solve: need 0 < t-floor < T"),
    ("solve", ["--t0", "0"], "solve: need t0 > 0 and t1 > 0"),
    ("solve", ["--t1", "-1"], "solve: need t0 > 0 and t1 > 0"),
    *(("reparam", ["--generalized-c", c],
       "reparam: need 0 < generalized-c < inf")
      for c in ("0", "-5", "nan", "inf")),
])
def test_probe_option_error_exit_two(problem_file, capsys, command, flags,
                                     message):
    code = main([command, "--problem", problem_file(TX), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["solve", "funnel", "suite"])
@pytest.mark.parametrize("flag", ["--rtol", "--atol"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_tolerance_error_exit_two(problem_file, capsys, command, flag, value):
    target = (["--corpus", "corpus"] if command == "suite"
              else ["--problem", problem_file(TX)])
    code = main([command, *target, flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"config error: {command}: rtol and atol must be "
                            "positive\n")


# ---------------------------------------------------------------------------
# options

@pytest.mark.parametrize("command", ["check", "suite"])
@pytest.mark.parametrize("flags,message", [
    (["--eps-min", "0"], "require 0 < eps-min < eps-max < inf"),
    (["--n", "1"], "grid size n must be at least 2"),
])
def test_grid_error_names_subcommand(problem_file, capsys, command, flags,
                                     message):
    target = (["--corpus", "corpus"] if command == "suite"
              else ["--problem", problem_file(TX)])
    code = main([command, *target, *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"config error: {command}: {message}\n"


@pytest.mark.parametrize("argv,document,summary", [
    (["check"], "json", "nagumo: pass"),
    (["reparam"], "json", None),
    (["reparam", "--format", "csv"], "csv", "tau_plus: "),
    (["solve"], "csv", "status: "),
    (["funnel", "--n", "3"], "json", "basin_width: "),
    (["suite"], "json", "tx.json: ok"),
])
def test_stdout_is_one_document_without_out(tmp_path, capsys, argv, document,
                                            summary):
    # summary lines go to stderr unless --out holds the report
    (tmp_path / "tx.json").write_text(json.dumps(TX))
    target = (["--corpus", str(tmp_path)] if argv[0] == "suite"
              else ["--problem", str(tmp_path / "tx.json")])
    assert main([*argv, *target]) == 0
    captured = capsys.readouterr()
    if document == "csv":
        lines = captured.out.splitlines()
        widths = {len(line.split(",")) for line in lines}
        assert len(widths) == 1 and len(lines) > 1
        assert all(math.isfinite(float(v)) for v in lines[-1].split(","))
    else:
        assert isinstance(json.loads(captured.out), dict)
    if summary is None:
        assert captured.err == ""
    else:
        assert summary in captured.err

@pytest.mark.parametrize("command,keys", [
    ("check", "T criteria eps_max eps_min n problem problem_name"),
    ("reparam", "T format generalized_c problem problem_name t_floor"),
    ("funnel", "T atol n problem problem_name rtol t_floor"),
    ("suite", "atol corpus eps_max eps_min n rtol"),
])
def test_config_records_flags_read(tmp_path, command, keys):
    # config holds the flags the subcommand reads, static defaults filled in
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "tx.json").write_text(json.dumps(TX))
    target = (["--corpus", str(corpus)] if command == "suite"
              else ["--problem", str(corpus / "tx.json")])
    out = tmp_path / "report.json"
    main([command, *target, "--out", str(out)])
    config = json.loads(out.read_text())["config"]
    assert sorted(config) == sorted(keys.split() + ["schema_version"])
    assert all(config[k] is not None
               for k in ("n", "eps_min", "eps_max") if k in config)


@pytest.mark.parametrize("command,flag", [
    ("check", ["--rtol", "1e-6"]), ("reparam", ["--n", "10"]),
    ("solve", ["--format", "csv"]), ("funnel", ["--eps-min", "1e-6"]),
    ("suite", ["--T", "0.5"]),
])
def test_flag_not_read_exit_two(problem_file, capsys, command, flag):
    target = (["--corpus", "corpus"] if command == "suite"
              else ["--problem", problem_file(TX)])
    with pytest.raises(SystemExit) as exc:
        main([command, *target, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def _fresh_python(code, *args):
    """Standard output of ``code`` run by a fresh interpreter that imports
    this package."""
    src = str(Path(odeuniq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; a fresh interpreter shows what
    # importing the command line interface pulls in
    code = ("import odeuniq.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh_python(code).strip() == "[]"


def test_one_parser_per_process_leaks_no_defaults(problem_file, tmp_path):
    # main reuses one parser: funnel's n = 201 default must not reach a
    # later check, nor check's n a later funnel.  Each interpreter runs its
    # argv lists in order; its last line holds the exit codes and reports.
    prob = problem_file(TX)
    funnel = ["funnel", "--problem", prob, "--out", str(tmp_path / "f.json")]
    check = ["check", "--problem", prob, "--out", str(tmp_path / "c.json")]
    code = ("import json, sys; from pathlib import Path; "
            "from odeuniq.cli import main; "
            "print(json.dumps([[main(a), Path(a[-1]).read_text()] "
            "for a in json.loads(sys.argv[1])]))")

    def run(*argvs):
        return json.loads(
            _fresh_python(code, json.dumps(argvs)).splitlines()[-1])

    alone = run(funnel) + run(check)
    assert run(funnel, check) == alone
    assert run(check, funnel) == alone[::-1]
    assert json.loads(alone[0][1])["config"]["n"] == 201
    assert json.loads(alone[1][1])["config"]["n"] == CheckConfig.n_t
