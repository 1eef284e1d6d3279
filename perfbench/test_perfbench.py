"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import tracing  # noqa: E402
from tracing import END, PARENT, START  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, "item", None, None]


def test_self_time_subtracts_children_and_leaves():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    leaves = {(3, "expr.call"): [7, 1.5]}
    selfs = tracing.self_times(spans, leaves)
    assert selfs == [3.0, 2.0, 1.0, 2.5]
    # self times plus leaf time partition the root span exactly
    assert sum(selfs) + 1.5 == spans[0][END] - spans[0][START]


def test_wrapped_calls_nest_under_their_caller():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    inner_t = tracer.wrap(inner, "m.inner")

    def outer(x):
        return inner_t(inner_t(x))

    assert tracer.wrap(outer, "m.outer")(1) == 3
    names = [s[0] for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.inner"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 0]
    selfs = tracing.self_times(tracer.spans, tracer.leaves)
    root = tracer.spans[0][END] - tracer.spans[0][START]
    assert abs(sum(selfs) - root) < 1e-9


def test_same_seed_same_inputs(tmp_path):
    a = inputs.make_inputs(7, tmp_path / "a")
    b = inputs.make_inputs(7, tmp_path / "b")
    c = inputs.make_inputs(8, tmp_path / "c")
    assert [p.path.read_bytes() for p in a] == [p.path.read_bytes() for p in b]
    assert [(p.id, p.family) for p in a] == [(p.id, p.family) for p in b]
    assert [p.text for p in a] != [p.text for p in c]
    # the checked-in corpus is always included, unchanged
    corpus = sorted((ROOT / "corpus").glob("*.json"))
    by_id = {p.id: p for p in a}
    for path in corpus:
        assert by_id[path.stem].path.read_bytes() == path.read_bytes()
        assert by_id[path.stem].family in {"tpx", "peano", "x_over_t", "zero"}


def test_seeded_problems_load():
    from odeuniq.criteria import ProblemSpec
    for seed in range(20):
        for p in inputs.seeded_problems(seed):
            ProblemSpec.from_dict(json.loads(p.text))
            assert p.generalized_c is None and not p.defect


def test_defect_inputs_are_probes_not_items(tmp_path):
    import workloads
    for workload in workloads.NAMES:
        measured = inputs.make_inputs(7, tmp_path / workload)
        items = workloads.build_items(workload, measured)
        probes = inputs.defect_problems(workload)
        inputs.write(probes, tmp_path / workload / "defects")
        assert all(p.defect for p in probes)
        assert len(workloads.build_items(workload, probes)) == len(probes)
        # a corpus input probed for a defect is not also a measured item
        probed = {d.source for d in inputs.DEFECTS[workload]
                  if isinstance(d.source, str) and d.generalized_c is None}
        assert probed.isdisjoint(item.id for item in items)
        assert {item.id for item in items} <= {p.id for p in measured}


def _package_modules():
    import odeuniq
    from odeuniq import cli, criteria, expr, quadrature, reparam, rootfind, solver
    return (odeuniq, cli, criteria, expr, quadrature, reparam, rootfind, solver)


def test_install_patches_every_binding_and_uninstall_restores_them():
    from odeuniq import criteria, quadrature, reparam, rootfind
    from odeuniq.expr import Expression
    from odeuniq.reparam import Reparametrization
    modules = _package_modules()
    targets = {}
    for mod in modules:
        targets.update(tracing._public_functions(mod))
    before = {(mod, attr): value for mod in modules
              for attr, value in vars(mod).items()
              if inspect.isfunction(value) and value in targets}
    methods = {(cls, attr): cls.__dict__[attr] for cls, attr in (
        (Expression, "lambdify"), (Expression, "evaluate"),
        (Reparametrization, "t_of_tau"))}
    # the bindings named in the benchmark's notes are among them
    for mod, attr in ((criteria, "integrate"), (reparam, "integrate"),
                      (reparam, "bisect"), (rootfind, "bisect"),
                      (quadrature, "integrate")):
        assert (mod, attr) in before

    tracer = tracing.Tracer()
    tracer.install(modules, Expression, Reparametrization)
    try:
        for (mod, attr), original in before.items():
            assert getattr(mod, attr) is not original, (mod.__name__, attr)
            assert getattr(mod, attr).__wrapped__ is original
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr] is not original
        assert set(tracer.patched) == set(before) | set(methods)
    finally:
        tracer.uninstall()
    for (mod, attr), original in before.items():
        assert getattr(mod, attr) is original, (mod.__name__, attr)
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original
    assert tracer.patched == []


def test_traced_cli_call_matches_untraced(tmp_path):
    from odeuniq import cli
    from odeuniq.expr import Expression
    from odeuniq.reparam import Reparametrization
    argv = ["funnel", "--problem", str(ROOT / "corpus" / "tx.json"), "--n", "21"]
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(argv + ["--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    tracer.install(_package_modules(), Expression, Reparametrization)
    try:
        assert cli.main(argv + ["--out", str(traced)]) == 0
    finally:
        tracer.uninstall()
    assert plain.read_bytes() == traced.read_bytes()
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert metrics["expr.calls"][0] > 0
    assert metrics["solver.steps_accepted"][0] > 0
    assert tracer.spans[0][0] == "cli.main"
