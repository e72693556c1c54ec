"""Self-tests of the benchmark: task generation, span arithmetic, tracing and
the oracles' ability to fail.  Run with ``python -m pytest perfbench``."""

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import quditbell as qb  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def keys(tasks):
    return [t.key() for t in tasks]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_fixes_the_task_list(workload):
    assert keys(wl.deck(workload, 7)) == keys(wl.deck(workload, 7))
    assert keys(wl.deck(workload, 7)) != keys(wl.deck(workload, 8))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_seed_has_the_same_mix(workload):
    def mix(tasks):
        # visibility sizes are drawn: its closed form costs the same at any size
        return Counter((t.family, None, None, None) if t.family == "visibility" else
                       (t.family, t.spec.get("n"), t.spec.get("d"), t.spec.get("mode"))
                       for t in tasks)

    assert mix(wl.deck(workload, 1)) == mix(wl.deck(workload, 2))


def test_a_run_times_every_task_in_each_of_a_fixed_number_of_rounds(tmp_path):
    assert all(wl.rounds(w, 1) == wl.MIN_ROUNDS for w in wl.WORKLOADS)
    tasks = [wl.Task("lhv", {"n": 2, "d": d}) for d in (2, 3, 4, 5)]
    calls = []
    stub = SimpleNamespace(rounds=lambda workload, seconds: 3, round_order=wl.round_order,
                           run_task=wl.run_task)
    records, elapsed, rounds = bench.timed_rounds(stub, _context(tmp_path), "certify", 1, 0.0,
                                                  tasks, lambda gap, gaps: calls.append(gap))
    assert (rounds, len(records), calls) == (3, 12, [0, 1, 2, 3])
    assert sorted(r.index for r in records) == sorted([0, 1, 2, 3] * 3)
    assert [r.index for r in records[:4]] == [0, 1, 2, 3]
    assert wl.round_order(1, 1, 50) != wl.round_order(1, 2, 50)
    assert all(r.task is tasks[r.index] for r in records)
    assert all(r.scale > 0 for r in records)
    assert elapsed >= sum(r.seconds for r in records)


def test_latencies_and_rate_use_each_tasks_best_round():
    task = wl.Task("lhv", {"n": 2, "d": 2})
    records = [bench.Record(task, None, "", s, i) for i, s in
               [(0, 0.3), (1, 0.1), (0, 0.2), (1, 0.5), (0, 0.4), (1, 0.3)]]
    verdicts = [wl.Verdict(True, True)] * 5 + [wl.Verdict(False, False)]
    assert sorted(bench.best_seconds(records)) == [0.1, 0.2]
    metrics = bench.end_to_end(records, verdicts, [0.1, 0.3, 0.2], 2048)
    assert metrics["tasks_per_s"]["value"] == pytest.approx(2 / 0.3)
    assert metrics["task_ms_p50"]["value"] == pytest.approx(150.0)
    assert metrics["setup_s"]["value"] == 0.2
    assert metrics["peak_rss_mb"]["value"] == 2.0
    assert metrics["ok_frac"]["value"] == pytest.approx(5 / 6)


def test_times_are_divided_by_the_host_scale_of_their_round():
    task = wl.Task("lhv", {"n": 2, "d": 2})
    slow = bench.Record(task, None, "", 0.4, 0, scale=2.0)  # a round at half speed
    quiet = bench.Record(task, None, "", 0.3, 0, scale=1.0)
    assert bench.best_seconds([slow, quiet]) == [pytest.approx(0.2)]
    assert bench.best_seconds([slow, quiet], scaled=False) == [0.3]
    assert bench.host_scale([3 * bench.REFERENCE_S, 2 * bench.REFERENCE_S]) == pytest.approx(2.0)
    assert 0.0 < bench.reference_reading() < 1.0


def test_self_time_subtracts_the_union_of_children():
    s = spans.Span
    tree = [
        s("root", 0.0, 10.0, -1, 0),
        s("a", 1.0, 4.0, 0, 0),
        s("b", 3.0, 6.0, 0, 0),  # overlaps a: together they cover 1..6
        s("a.child", 2.0, 3.0, 1, 0),
        s("leaf", 8.0, 9.5, 0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.5, 2.0, 3.0, 1.0, 1.5])


def test_aggregate_leaves_out_oracle_spans():
    s = spans.Span
    tree = [
        s("bounds.hlnhv_bound", 0.0, 2.0, -1, 0, {"space": 10}),
        s(spans.ORACLE, 2.0, 5.0, -1, -1),
        s("bounds.hlnhv_bound", 2.5, 4.0, 1, -1, {"space": 99}),
    ]
    layers = spans.aggregate(tree)
    assert layers["bounds.hlnhv_bound"].calls == 1
    assert layers["bounds.hlnhv_bound"].self_s == pytest.approx(2.0)
    assert layers["bounds.hlnhv_bound"].total("space") == 10


def test_tracer_wraps_every_binding_and_restores_them():
    import quditbell.cli
    import quditbell.optimize

    original = qb.ghz_bell_value
    tracer = spans.Tracer()
    spans.install_quditbell(tracer)
    try:
        assert quditbell.optimize.ghz_bell_value is not original
        assert quditbell.cli.ghz_bell_value is not original
        scenario = qb.BellScenario(2, 2)
        qb.optimize_phases(scenario, qb.optimal_angles(scenario), 5)
    finally:
        tracer.uninstall()
    assert quditbell.optimize.ghz_bell_value is original
    assert qb.ghz_bell_value is original
    names = [sp.name for sp in tracer.spans]
    assert names[0] == "optimize.search"
    assert names.count("quantum.ghz_bell_value") == 5
    assert all(sp.parent == 0 for sp in tracer.spans[1:])


def _context(tmp_path):
    return wl.Context(root=str(HERE.parent), tmp=str(tmp_path), python=sys.executable,
                      child_env={})


def test_a_stubbed_wrong_bound_counts_as_an_error(tmp_path, monkeypatch):
    real = qb.hlnhv_bound

    def off_by_one(scenario, partition, *args, **kwargs):
        bound, witness = real(scenario, partition, *args, **kwargs)
        return bound + 1, witness

    ctx = _context(tmp_path)
    task = wl.Task("hlnhv", {"n": 3, "d": 2, "block_a": [1]})
    good = bench.run_tasks(wl, ctx, [task])
    monkeypatch.setattr(qb, "hlnhv_bound", off_by_one)
    bad = bench.run_tasks(wl, ctx, [task])
    verdicts = bench.judge(wl, ctx, good + bad)
    assert [v.ok for v in verdicts] == [True, False]
    metrics = bench.end_to_end(good + bad, verdicts, [0.1], 1024)
    assert metrics["ok_frac"]["value"] == 0.5


def test_a_raising_task_counts_as_an_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(qb, "lhv_bound", broken)
    ctx = _context(tmp_path)
    records = bench.run_tasks(wl, ctx, [wl.Task("lhv", {"n": 2, "d": 2})])
    assert "boom" in records[0].error
    assert not bench.judge(wl, ctx, records)[0].ok


def test_search_oracle_rejects_a_value_its_config_does_not_give():
    scenario = qb.BellScenario(2, 2)
    config = qb.optimal_angles(scenario)
    spec = {"n": 2, "d": 2, "mode": "free", "start": config.phases}
    value = qb.ghz_bell_value(config)
    assert wl.check_phases(spec, (config, value), None).solved
    assert not wl.check_phases(spec, (config, value - 0.1), None).ok


def test_cli_oracles_check_exit_codes_and_values(tmp_path):
    ctx = _context(tmp_path)
    scenario = qb.BellScenario(3, 2)
    part = qb.Bipartition.from_block(3, [1])
    bound, witness = qb.hlnhv_bound(scenario, part)
    report = {"n": 3, "d": 2, "model": "hlnhv", "partition": [[1], [2, 3]], "bound": str(bound),
              "witness": {"xi": dict(witness.xi), "zeta": dict(witness.zeta)},
              "strategies_enumerated": 64}
    payload = json.dumps(report)
    spec = {"n": 3, "d": 2, "steps": [{"argv": ["bound"], "expect": 0}]}
    assert wl.check_cli("bound_hlnhv", spec, [(0, payload, "")], ctx).ok
    wrong = json.dumps(dict(report, bound=str(bound + Fraction(1))))
    assert not wl.check_cli("bound_hlnhv", spec, [(0, wrong, "")], ctx).ok
    assert not wl.check_cli("bound_hlnhv", spec, [(1, payload, "")], ctx).ok
    failing = {"steps": [{"argv": ["bound"], "expect": 2}]}
    assert wl.check_cli("error_budget", failing, [(2, "", "error: budget")], ctx).ok
    assert not wl.check_cli("error_budget", failing, [(0, payload, "")], ctx).ok
