"""The certified bounds pinned bit for bit, and each of the benchmark's decks run with
its own oracles, so a change to the surface a deck calls fails here before any timing."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from quditbell.bounds import bipartitions, hlnhv_bound, lhv_bound
from quditbell.scenario import BellScenario

# every strategy space below is at most 5^34 strategies (N=6, d=5, split 1/2,...,6)
BUDGET = 5**34
# the (N, d) of the certify deck's LHV tasks
LHV_SIZES = [(2, d) for d in range(2, 6)] + [(3, d) for d in range(2, 5)] + [(4, 2), (4, 3)]
# sha256 of certify_answers(), taken from the search before its per-call costs were cut
PINNED = "c76c0f917d104474e54168985bfd177311794084d3fd0152b6f244c43930a6b0"


def certify_answers() -> str:
    """One line per answer: the bound and the whole witness, its value types included."""
    lines = []
    for n in range(2, 7):
        for d in range(2, 6):
            for part in bipartitions(n):
                bound, witness = hlnhv_bound(BellScenario(n, d), part, budget=BUDGET)
                lines.append(f"hlnhv {n} {d} {part.describe()} {bound!r} "
                             f"{witness.xi!r} {witness.zeta!r}")
    for n, d in LHV_SIZES:
        bound, witness = lhv_bound(BellScenario(n, d))
        lines.append(f"lhv {n} {d} {bound!r} {witness!r}")
    return "\n".join(lines)


def test_answers_are_pinned():
    # each witness is the least optimum, so a change in tie-breaking shows too
    assert hashlib.sha256(certify_answers().encode()).hexdigest() == PINNED


def _load_workloads():
    """perfbench/workloads.py as a module of its own name, read and left unchanged."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("certify_deck_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_certify_deck_passes_its_own_checks(tmp_path):
    wl = _load_workloads()
    ctx = wl.Context(root=str(tmp_path), tmp=str(tmp_path), python=sys.executable, child_env={})
    tasks = wl.deck("certify", 7)
    assert {task.family for task in tasks} == {"hlnhv", "lhv", "grouping"}
    for task in tasks:
        verdict = wl.check_task(task, wl.run_task(task, ctx), ctx)
        assert verdict.ok and verdict.solved, f"{task.key()}: {verdict.note}"


@pytest.mark.parametrize("workload,size", [("violate", 171), ("search", 12), ("cli", 21)])
def test_every_other_deck_passes_its_own_checks(tmp_path, workload, size):
    # the cli deck calls cli.run in process, as its own in_process mode does: the
    # parsing, reports and exit codes it checks, without a subprocess per step
    wl = _load_workloads()
    ctx = wl.Context(root=str(tmp_path), tmp=str(tmp_path), python=sys.executable,
                     child_env={}, in_process=True)
    tasks = wl.deck(workload, 7)
    assert len(tasks) == size
    for task in tasks:
        verdict = wl.check_task(task, wl.run_task(task, ctx), ctx)
        assert verdict.ok and verdict.solved, f"{task.key()}: {verdict.note}"
