"""Task decks, task execution and answer oracles for the quditbell benchmark.

A workload is a closed loop with one client: the next task starts when the
previous one has returned.  The workload seed draws one deck of tasks: the
random phases, the random search starts and the drawn partitions and sizes.
Every seed's deck holds the same task families in the same counts.  A run
times the deck a fixed number of rounds (see rounds()), each round in its own
seeded order, and takes each task's shortest time over the rounds.

Oracles run after the timed loop and are independent of the code under test
where the library allows: closed-form values, exact rational re-evaluation of
witnesses, a second probability path, or a parse of the CLI's own output.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import os
import subprocess
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import quditbell as qb

WORKLOADS = ("certify", "violate", "search", "cli")

# Objective evaluations allowed per restart of the phase search: the
# library's own default, which is also what `violation --budget` sends.  Probes
# over six seeds: most searches stop on their tolerance after 770-9,200
# evaluations; (2,5) free took 6,700-12,500 and once ran to the budget.
SEARCH_BUDGET = inspect.signature(qb.optimize_with_restarts).parameters["budget"].default
SOLVED_TOL = 1e-6  # a search is solved within this of max_violation
CHILD_TIMEOUT_S = 120.0

TWO_PI = 2.0 * math.pi

# Seconds one round of the deck takes on a 2-core x86_64 VM with BLAS on one
# thread.  They fix how many rounds a run times, so a run on a slower or
# faster machine, or after a regression, times the same tasks the same number
# of times.
ROUND_SECONDS = {"certify": 2.0, "violate": 3.0, "search": 1.9, "cli": 6.5}
MIN_ROUNDS = 3


def rounds(workload: str, seconds: float) -> int:
    """Rounds in a run of about `seconds`; at least MIN_ROUNDS, so that every
    task's shortest time is taken over several runs spread across the run."""
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


@dataclass
class Task:
    family: str
    spec: dict

    def key(self) -> str:
        """Canonical text of the task's inputs, arrays included."""
        return json.dumps(
            [self.family, self.spec],
            sort_keys=True,
            default=lambda a: np.asarray(a).tolist(),
        )


@dataclass
class Verdict:
    ok: bool
    solved: bool
    note: str = ""


@dataclass
class Context:
    """What a task needs besides its spec: scratch directory and child set-up."""

    root: str
    tmp: str
    python: str
    child_env: dict
    child_rss_kb: list = field(default_factory=list)
    steps: list = field(default_factory=list)  # (subcommand, expected, got, ms)
    in_process: bool = False
    _memo: dict = field(default_factory=dict)

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def _scenario(spec) -> qb.BellScenario:
    return qb.BellScenario(spec["n"], spec["d"])


def _close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * max(1.0, abs(reference))


# ---------------------------------------------------------------- certify


# Strategy spaces from here up (N=4/d=4 with a 1+3 split, 10^6 strategies,
# and N=5/d=3 with 1,2/3,4,5, 5*10^5) take 2-3 s a scan.  A task that long
# takes the host's speed over seconds, which on a small shared machine swings
# by a third, and it would hold most of a round, so the deck leaves them out:
# its largest scans are the 6*10^4-strategy spaces at N=4, d=3 and d=4.
# N=5/d=3 is timed on the cli workload, through the CLI's worker pool.
HEAVY_SPACE = 100_000


def _certify_deck(rng) -> list[Task]:
    tasks = []
    for n, dims in ((3, range(2, 6)), (4, range(2, 5))):
        for d in dims:
            for part in qb.bipartitions(n):
                if d ** (2 ** len(part.block_a) + 2 ** len(part.block_b)) < HEAVY_SPACE:
                    tasks.append(Task("hlnhv", {"n": n, "d": d, "block_a": list(part.block_a)}))
    for n, dims in ((2, range(2, 6)), (3, range(2, 5)), (4, range(2, 4))):
        for d in dims:
            tasks.append(Task("lhv", {"n": n, "d": d}))
    # The balanced split: the grouping's cost depends on the partition (at
    # N=3/d=3 it is 7 ms for 1/2,3 and 2.5 ms for 1,2/3), so a drawn one would
    # move the percentiles with the seed.  The seed draws the deck's order.
    for n in range(3, 7):
        for d in range(2, 6):
            tasks.append(Task("grouping", {"n": n, "d": d, "block_a": list(range(1, n // 2 + 1))}))
    return tasks


def _partition(spec) -> qb.Bipartition:
    return qb.Bipartition.from_block(spec["n"], spec["block_a"])


def run_hlnhv(spec, ctx):
    return qb.hlnhv_bound(_scenario(spec), _partition(spec))


def check_hlnhv(spec, out, ctx) -> Verdict:
    bound, witness = out
    target = Fraction(2 ** (spec["n"] - 1))
    if bound != target:
        return Verdict(False, False, f"bound {bound} != {target}")
    value = qb.strategy_bell_value(witness, _scenario(spec))
    if value != bound:
        return Verdict(False, False, f"witness value {value} != bound {bound}")
    return Verdict(True, True)


def run_lhv(spec, ctx):
    return qb.lhv_bound(_scenario(spec))


def _local_witness_value(scenario, witness) -> float:
    outcomes = {
        s: tuple(witness[p][int(c) - 1] for p, c in enumerate(s))
        for s in scenario.setting_strings()
    }
    return qb.bell_value(qb.point_mass_table(scenario, outcomes))


def check_lhv(spec, out, ctx) -> Verdict:
    bound, witness = out
    if bound > 2 ** (spec["n"] - 1):
        return Verdict(False, False, f"LHV bound {bound} above the HLNHV bound")
    value = _local_witness_value(_scenario(spec), witness)
    if not _close(value, float(bound), 1e-12):
        return Verdict(False, False, f"witness table value {value} != bound {bound}")
    return Verdict(True, True)


def run_grouping(spec, ctx):
    scenario, part = _scenario(spec), _partition(spec)
    grouping = qb.build_grouping(scenario, part)
    return grouping, [qb.group_deterministic_max(g, scenario, part) for g in grouping.groups]


def check_grouping(spec, out, ctx) -> Verdict:
    grouping, maxima = out
    n = spec["n"]
    covered = sorted(s for group in grouping.groups for s in group)
    if covered != sorted(_scenario(spec).setting_strings()):
        return Verdict(False, False, "quadruples do not cover every setting string once")
    if len(maxima) != 2 ** (n - 2) or any(m != 2 for m in maxima):
        return Verdict(False, False, f"quadruple maxima {sorted(set(maxima))}, expected all 2")
    return Verdict(True, True)


# ---------------------------------------------------------------- violate

GHZ_VALUE_GRID = [(n, d) for n in range(2, 13) for d in range(2, 8)]
# 2^N d^N entries up to N=7, d=3 (a 6.5 MB JSON file)
TABLE_GRID = (
    [(n, d) for n in (2, 3) for d in range(2, 8)]
    + [(4, d) for d in range(2, 6)]
    + [(5, d) for d in range(2, 5)]
    + [(n, d) for n in (6, 7) for d in (2, 3)]
)
# d^N <= 256: where `violation --method auto` takes the dense path.  N=8/d=2
# is left out: its 256 settings take 1.5 s a call, too long a task to time
# steadily on a small shared machine (see HEAVY_SPACE).
DENSE_GRID = [(n, d) for n in range(2, 8) for d in range(2, 8) if d**n <= 256]


def _phases(rng, n, d):
    return rng.uniform(0.0, TWO_PI, (n, 2, d))


def _violate_deck(rng) -> list[Task]:
    tasks = [Task("ghz_value", {"n": n, "d": d}) for n, d in GHZ_VALUE_GRID]
    for n, d in TABLE_GRID:
        tasks.append(Task("table", {"n": n, "d": d, "phases": None}))
        tasks.append(Task("table", {"n": n, "d": d, "phases": _phases(rng, n, d)}))
        tasks.append(Task("roundtrip", {"n": n, "d": d, "phases": _phases(rng, n, d)}))
    for n, d in DENSE_GRID:
        tasks.append(Task("dense", {"n": n, "d": d, "phases": _phases(rng, n, d), "v": None}))
        v = float(rng.uniform(0.5, 1.0))
        tasks.append(Task("dense", {"n": n, "d": d, "phases": _phases(rng, n, d), "v": v}))
    return tasks


def _config(spec) -> qb.PhaseConfiguration:
    scenario = _scenario(spec)
    if spec.get("phases") is None:
        return qb.optimal_angles(scenario)
    return qb.PhaseConfiguration(scenario, spec["phases"])


def run_ghz_value(spec, ctx):
    return qb.ghz_bell_value(qb.optimal_angles(_scenario(spec)))


def check_ghz_value(spec, out, ctx) -> Verdict:
    ceiling = qb.max_violation(_scenario(spec))
    ok = abs(out - ceiling) <= 1e-9 * abs(ceiling)
    return Verdict(ok, ok, "" if ok else f"{out!r} != max_violation {ceiling!r}")


def run_table(spec, ctx):
    return qb.bell_value(qb.ghz_table(_config(spec)))


def _check_against_closed_form(spec, out, scale=1.0) -> Verdict:
    reference = scale * qb.ghz_bell_value(_config(spec))
    ok = _close(out, reference, 1e-10)
    return Verdict(ok, ok, "" if ok else f"{out!r} != closed form {reference!r}")


def check_table(spec, out, ctx) -> Verdict:
    return _check_against_closed_form(spec, out)


def run_roundtrip(spec, ctx):
    table = qb.ghz_table(_config(spec))
    text = json.dumps(table.to_json_dict())
    loaded = qb.JointProbabilityTable.from_json_dict(json.loads(text))
    return qb.bell_value(loaded)


check_roundtrip = check_table


def run_dense(spec, ctx):
    rho = qb.ghz_state(_scenario(spec))
    if spec["v"] is not None:
        rho = qb.mix_with_noise(rho, spec["v"])
    table = qb.joint_probabilities(rho, _config(spec))
    return table if spec["v"] is None else qb.bell_value(table)


def check_dense(spec, out, ctx) -> Verdict:
    if spec["v"] is not None:
        return _check_against_closed_form(spec, out, scale=spec["v"])
    reference = qb.ghz_table(_config(spec))
    worst = max(
        float(np.max(np.abs(out.probs_for(s) - reference.probs_for(s))))
        for s in reference.scenario.setting_strings()
    )
    ok = worst <= 1e-10
    return Verdict(ok, ok, "" if ok else f"dense and closed-form tables differ by {worst:.3e}")


# ----------------------------------------------------------------- search

# (N, d), copies in free mode and copies in symmetric mode in one deck.  Each
# search takes a few hundred milliseconds at most, and its objective count
# varies little with the start (probes: 770-2,300 evaluations; a restart task
# at (2,2) took 2,307 for every seed).  Longer or more start-dependent
# searches, all of those at N=3 and N=4 among them, are left out.  A task
# that runs for a second takes the host's average speed over that second,
# which on a small shared machine swings by a third from run to run; the best
# of a run's rounds hides that only for short tasks (a 10-task deck with
# searches up to 0.8 s spread by 0.27-0.30 over ten runs).  And a task whose
# cost depends on the start makes the deck's rate depend on the seed: (2,5)
# took 3,400-20,000 evaluations in either mode, and one free search ran to
# the budget.  Three copies of each kind put the 90th percentile among
# tasks of one kind: with fewer than ten tasks it would be the largest.
SEARCH_MIX = (((2, 2), 3, 3), ((2, 3), 0, 3))
RESTART_TASKS = (((2, 2), "free"),) * 3
RESTARTS = 3


def _search_deck(rng) -> list[Task]:
    tasks = []
    for (n, d), *copies in SEARCH_MIX:
        for mode, count in zip(("free", "symmetric"), copies):
            for _ in range(count):
                start = _phases(rng, n, d)
                if mode == "symmetric":
                    start = np.tile(start[0], (n, 1, 1))
                tasks.append(Task("phases", {"n": n, "d": d, "mode": mode, "start": start}))
    for (n, d), mode in RESTART_TASKS:
        seed = int(rng.integers(2**31))
        tasks.append(Task("restarts", {"n": n, "d": d, "mode": mode, "seed": seed}))
    return tasks


def run_phases(spec, ctx):
    scenario = _scenario(spec)
    start = qb.PhaseConfiguration(scenario, spec["start"])
    return qb.optimize_phases(scenario, start, SEARCH_BUDGET, mode=spec["mode"])


def _search_verdict(spec, config, value, floor) -> Verdict:
    ceiling = qb.max_violation(_scenario(spec))
    if value > ceiling + SOLVED_TOL:
        return Verdict(False, False, f"value {value!r} above max_violation {ceiling!r}")
    if value < floor:
        return Verdict(False, False, f"value {value!r} below the start value {floor!r}")
    recomputed = qb.ghz_bell_value(config)
    if not _close(recomputed, value, 1e-12):
        return Verdict(False, False, f"returned config evaluates to {recomputed!r}, not {value!r}")
    if spec["mode"] == "symmetric" and not np.array_equal(
        config.phases, np.broadcast_to(config.phases[0], config.phases.shape)
    ):
        return Verdict(False, False, "symmetric search returned party-dependent phases")
    return Verdict(True, value >= ceiling - SOLVED_TOL)


def check_phases(spec, out, ctx) -> Verdict:
    config, value = out
    start = qb.ghz_bell_value(qb.PhaseConfiguration(_scenario(spec), spec["start"]))
    return _search_verdict(spec, config, value, start)


def run_restarts(spec, ctx):
    return qb.optimize_with_restarts(
        _scenario(spec), restarts=RESTARTS, budget=SEARCH_BUDGET, mode=spec["mode"], seed=spec["seed"]
    )


def check_restarts(spec, out, ctx) -> Verdict:
    values = out.restart_values
    if len(values) != RESTARTS or out.value != max(values):
        return Verdict(False, False, f"value {out.value!r} is not the best of {values}")
    return _search_verdict(spec, out.config, out.value, -math.inf)


def restart_values(task: Task, out) -> list[float]:
    """Final value of every single search a search task ran."""
    if task.family == "phases":
        return [out[1]]
    if task.family == "restarts":
        return list(out.restart_values)
    return []


# -------------------------------------------------------------------- cli

TMP = "@tmp/"  # argv prefix replaced by the run's scratch directory


def _cli_deck(rng) -> list[Task]:
    def pick(options):
        return options[int(rng.integers(len(options)))]

    def step(*argv, expect=0):
        return {"argv": [str(a) for a in argv], "expect": expect}

    tasks = []
    for _ in range(2):
        n, d = int(rng.integers(2, 13)), int(rng.integers(2, 9))
        tasks.append(Task("visibility", {"n": n, "d": d, "steps": [step("visibility", "--n", n, "--d", d)]}))
    tasks.append(Task("scan", {"steps": [step("scan", "--n-range", "2:8", "--d-range", "2:8", "--format", "csv")]}))
    # Fixed sizes, so every deck holds the same work and the same largest
    # child; the seed draws the rest.
    for family, sizes in (
        ("violation_dense", [(2, 5), (3, 3), (4, 3)]),
        ("violation_closed", [(3, 7), (6, 3), (9, 2)]),
    ):
        for n, d in sizes:
            tasks.append(Task(family, {"n": n, "d": d, "steps": [step("violation", "--n", n, "--d", d)]}))
    for n, d in [(3, 2), (3, 3), (3, 2)]:  # the two-step tasks hold the 90th percentile
        path = f"{TMP}table-{int(rng.integers(2**31))}.json"
        tasks.append(Task("emit_eval", {"n": n, "d": d, "steps": [
            step("violation", "--n", n, "--d", d, "--emit-table", path),
            step("eval", path),
        ]}))
    for n, d in [(3, 3), (3, 4), (4, 2)]:
        block = list(pick(list(qb.bipartitions(n))).block_a)
        part = qb.Bipartition.from_block(n, block).describe()
        tasks.append(Task("bound_hlnhv", {"n": n, "d": d, "steps": [
            step("bound", "--n", n, "--d", d, "--partition", part)]}))
    for n, d in [(2, 5), (3, 3), (4, 2)]:
        tasks.append(Task("bound_lhv", {"n": n, "d": d, "steps": [
            step("bound", "--n", n, "--d", d, "--model", "lhv")]}))
    # large enough for the CLI's default worker pool to engage
    tasks.append(Task("bound_hlnhv", {"n": 5, "d": 3, "steps": [
        step("bound", "--n", 5, "--d", 3, "--partition", "1,2/3,4,5")]}))
    bad = pick(["1,2/4", "1/1,2,3", "1,2", "1,x/3"])
    tasks.append(Task("error_input", {"steps": [
        step("bound", "--n", 3, "--d", 3, "--partition", bad, expect=1)]}))
    tasks.append(Task("error_budget", {"steps": [
        step("bound", "--n", 3, "--d", 3, "--partition", "1/2,3", "--budget", 10, expect=2)]}))
    return tasks


def _argv(ctx, argv):
    return [os.path.join(ctx.tmp, a[len(TMP):]) if a.startswith(TMP) else a for a in argv]


def _run_child(ctx, argv):
    """Run one CLI invocation as a subprocess; returns (code, stdout, stderr).

    Output goes to files and the child is reaped with wait4, so its peak RSS
    (and that of any worker it waited for) is known exactly.
    """
    out_path = os.path.join(ctx.tmp, "child.out")
    err_path = os.path.join(ctx.tmp, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [ctx.python, "-m", "quditbell.cli", *argv],
            stdout=out, stderr=err, env=ctx.child_env, cwd=ctx.root,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.child_rss_kb.append(usage.ru_maxrss)
    with open(out_path) as out, open(err_path) as err:
        return proc.returncode, out.read(), err.read()


def _run_in_process(argv):
    from quditbell import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli(spec, ctx):
    results = []
    for step in spec["steps"]:
        argv = _argv(ctx, step["argv"])
        if ctx.in_process:
            results.append(_run_in_process(argv))
        else:
            started = time.perf_counter()
            results.append(_run_child(ctx, argv))
            ms = (time.perf_counter() - started) * 1000.0
            ctx.steps.append((argv[0], step["expect"], results[-1][0], ms))
    return results


def _json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _check_violation(scenario, payload) -> str:
    if not isinstance(payload, dict):
        return "stdout is not a JSON report"
    expected = qb.ghz_bell_value(qb.optimal_angles(scenario))
    if not _close(payload.get("bell_value", math.nan), expected, 1e-9):
        return f"bell_value {payload.get('bell_value')!r} != library {expected!r}"
    return ""


def _check_bound(spec, payload, ctx) -> str:
    if not isinstance(payload, dict):
        return "stdout is not a JSON report"
    n, d = spec["n"], spec["d"]
    scenario = qb.BellScenario(n, d)
    bound = Fraction(payload["bound"])
    if payload["model"] == "lhv":
        library = ctx.memo(("lhv", n, d), lambda: qb.lhv_bound(scenario)[0])
        witness = [(w["1"], w["2"]) for _, w in sorted(payload["witness"].items(),
                                                       key=lambda kv: int(kv[0].split("-")[1]))]
        if bound != library:
            return f"LHV bound {bound} != library {library}"
        if not _close(_local_witness_value(scenario, witness), float(bound), 1e-12):
            return "LHV witness does not attain the reported bound"
        return ""
    block_a, block_b = payload["partition"]
    part = qb.Bipartition(tuple(block_a), tuple(block_b))
    if bound != 2 ** (n - 1):
        return f"HLNHV bound {bound} != 2^(N-1)"
    strategy = qb.DeterministicStrategy(part, payload["witness"]["xi"], payload["witness"]["zeta"])
    if qb.strategy_bell_value(strategy, scenario) != bound:
        return "HLNHV witness does not attain the reported bound"
    if payload["strategies_enumerated"] != d ** (2 ** len(block_a)) * d ** (2 ** len(block_b)):
        return f"strategies_enumerated {payload['strategies_enumerated']} != space size"
    return ""


def _check_scan(text) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 49:
        return f"scan printed {len(rows)} rows, expected 49"
    for row in rows:
        scenario = qb.BellScenario(int(row["n"]), int(row["d"]))
        report = qb.critical_visibility(scenario)
        if not (
            _close(float(row["max_violation"]), report.max_value, 1e-9)
            and _close(float(row["v_cr"]), report.critical_visibility, 1e-9)
            and float(row["hlnhv_bound"]) == 2.0 ** (scenario.n_parties - 1)
        ):
            return f"scan row {row} disagrees with the library"
    return ""


def check_cli(family, spec, out, ctx) -> Verdict:
    for step, (code, stdout, _stderr) in zip(spec["steps"], out):
        if code != step["expect"]:
            return Verdict(False, False, f"{step['argv']} exited {code}, expected {step['expect']}")
        if step["expect"] != 0 and stdout:
            return Verdict(False, False, f"{step['argv']} printed a report on failure")
    stdout = out[0][1]
    note = ""
    if family == "visibility":
        payload = _json(stdout)
        report = qb.critical_visibility(qb.BellScenario(spec["n"], spec["d"]))
        if not isinstance(payload, dict) or not (
            _close(payload.get("critical_visibility", math.nan), report.critical_visibility, 1e-9)
            and _close(payload.get("max_value", math.nan), report.max_value, 1e-9)
        ):
            note = f"visibility report {stdout[:200]!r} disagrees with the library"
    elif family == "scan":
        note = _check_scan(stdout)
    elif family in ("violation_dense", "violation_closed"):
        note = _check_violation(qb.BellScenario(spec["n"], spec["d"]), _json(stdout))
    elif family == "emit_eval":
        scenario = qb.BellScenario(spec["n"], spec["d"])
        note = _check_violation(scenario, _json(stdout))
        evaluated = _json(out[1][1])
        if not note:
            if not isinstance(evaluated, dict) or len(evaluated.get("q_values", ())) != 2 ** spec["n"]:
                note = "eval report lacks one q value per setting string"
            else:
                note = _check_violation(scenario, evaluated)
    elif family in ("bound_hlnhv", "bound_lhv"):
        note = _check_bound(spec, _json(stdout), ctx)
    return Verdict(not note, not note, note)


# ------------------------------------------------------------ dispatching

DECKS = {"certify": _certify_deck, "violate": _violate_deck, "search": _search_deck, "cli": _cli_deck}

RUNNERS = {
    "hlnhv": (run_hlnhv, check_hlnhv),
    "lhv": (run_lhv, check_lhv),
    "grouping": (run_grouping, check_grouping),
    "ghz_value": (run_ghz_value, check_ghz_value),
    "table": (run_table, check_table),
    "roundtrip": (run_roundtrip, check_roundtrip),
    "dense": (run_dense, check_dense),
    "phases": (run_phases, check_phases),
    "restarts": (run_restarts, check_restarts),
}


def deck(workload: str, seed: int) -> list[Task]:
    """The seed's tasks, in the order of the first round."""
    rng = np.random.default_rng([seed % 2**63, 0])
    tasks = DECKS[workload](rng)
    return [tasks[i] for i in rng.permutation(len(tasks))]


def round_order(seed: int, round_index: int, size: int) -> list[int]:
    """Task indices in the order round `round_index` runs them."""
    if round_index == 0:
        return list(range(size))
    rng = np.random.default_rng([seed % 2**63, 1, round_index])
    return [int(i) for i in rng.permutation(size)]


def run_task(task: Task, ctx: Context):
    if task.family in RUNNERS:
        return RUNNERS[task.family][0](task.spec, ctx)
    return run_cli(task.spec, ctx)


def check_task(task: Task, out, ctx: Context) -> Verdict:
    if task.family in RUNNERS:
        return RUNNERS[task.family][1](task.spec, out, ctx)
    return check_cli(task.family, task.spec, out, ctx)


def warm_up(workload: str, ctx: Context) -> None:
    """Load lazily imported code and fill the small caches before timing."""
    if workload == "cli":
        code, _, _ = _run_child(ctx, ["visibility", "--n", "2", "--d", "2"])
        ctx.child_rss_kb.clear()
        if code != 0:
            raise RuntimeError(f"CLI warm-up exited {code}")
        return
    scenario = qb.BellScenario(2, 2)
    config = qb.optimal_angles(scenario)
    if workload == "certify":
        part = qb.Bipartition.from_block(2, [1])
        qb.strategy_bell_value(qb.hlnhv_bound(scenario, part)[1], scenario)
        qb.lhv_bound(scenario)
        qb.group_deterministic_max(qb.build_grouping(scenario, part).groups[0], scenario, part)
    elif workload == "violate":
        table = qb.joint_probabilities(qb.mix_with_noise(qb.ghz_state(scenario), 0.9), config)
        qb.bell_value(qb.JointProbabilityTable.from_json_dict(json.loads(json.dumps(table.to_json_dict()))))
        qb.ghz_bell_value(config)
        qb.ghz_table(config)
    else:
        qb.optimize_phases(scenario, config, 50, mode="symmetric")
