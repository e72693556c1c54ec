"""Benchmark quditbell end to end (and, with --trace 1, layer by layer).

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy; without ./src/quditbell the command exits 2 before
measuring anything.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; everything else goes to stderr,
including a ``perfbench-meta`` JSON line with the run's metadata.  See
perfbench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: imports come after

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread everywhere, in this process and in every CLI child: on a
# small shared machine the threaded OpenBLAS default made dense N=4/d=3 calls
# jump from 5-8 ms to 0.5 s now and then.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# QUDITBELL_BUDGET would change what `bound` enumerates.  Bytecode is written
# as an installed package would have it, so children do not recompile ./src.
CLEARED_ENV = ("QUDITBELL_BUDGET", "PYTHONDONTWRITEBYTECODE")

SETUP_PROBES = 8  # fresh interpreters timed, spread from before the first round to after the last
# Host speed.  On a small shared machine the same code ran up to two thirds
# longer in one minute than in the next, so every timing is scaled by the
# speed of a fixed reference kernel timed next to it (see host_scale).
REFERENCE_S = 0.5e-3  # the kernel's time on a quiet 2-core x86_64 VM: the unit of the scale
REFERENCE_REPEATS = 3  # timings per reading; a reading is the fastest of them
REFERENCE_EVERY_S = 0.05  # a reading after any task that ends this long after the last
HARD_LIMIT_S = 120.0  # never start a round that would end past this
MAX_REPORTED_FAILURES = 5
CLI_PROBES = 5
CLI_COMMANDS = ("bound", "violation", "visibility", "scan", "eval")
CLI_ONLY_MS = ("cli.interpreter_ms", "cli.import_ms", "cli.import.numpy_ms", "cli.import.click_ms",
               "cli.import.quditbell_ms", *(f"cli.{c}.ms_p50" for c in CLI_COMMANDS))

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "solved_frac": "ratio",
}


@dataclass
class Record:
    task: object
    out: object
    error: str
    seconds: float
    index: int = 0  # the task's place in the deck
    scale: float = 1.0  # host slowdown while its round ran (see host_scale)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "violate", "search", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def pin_environment() -> dict:
    os.environ.update(BLAS_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.dont_write_bytecode = False
    sys.path[:0] = [str(SRC), str(HERE)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def setup(workload: str, seed: int, child_env: dict):
    """Import, generate the deck and warm up; the part setup_s times."""
    import workloads as wl

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    ctx = wl.Context(root=str(ROOT), tmp=tmp, python=sys.executable, child_env=child_env)
    try:
        tasks = wl.deck(workload, seed)
        wl.warm_up(workload, ctx)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return wl, ctx, tasks


def reference_kernel() -> int:
    """Fixed work of the kinds the package does (a Python loop, small numpy
    operations, a JSON round trip) that calls nothing in the package."""
    import numpy as np

    total = 0
    for i in range(2000):
        total = (total + i * 7) % 1009
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(15):
        a = np.cos(a) * 0.5 + np.abs(np.sin(a)).sum() * 1e-3
    return total + len(json.loads(json.dumps([float(x) for x in a] * 4)))


def reference_reading() -> float:
    """Fastest of REFERENCE_REPEATS timings of the reference kernel."""
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - started)
    return best


def host_scale(readings) -> float:
    """How much slower than REFERENCE_S the host ran the kernel at its
    quickest among `readings`.  Dividing a time by it gives the time at the
    reference speed, so runs made while the host is busy or quiet compare."""
    return min(readings) / REFERENCE_S


def setup_probe(args) -> float:
    """Set-up seconds of a fresh interpreter, at reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def run_one(wl, ctx, task, index=0) -> Record:
    started = time.perf_counter()
    try:
        out, error = wl.run_task(task, ctx), ""
    except Exception as exc:  # a failed task is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return Record(task, out, error, time.perf_counter() - started, index)


def run_tasks(wl, ctx, tasks) -> list:
    return [run_one(wl, ctx, task, i) for i, task in enumerate(tasks)]


def timed_rounds(wl, ctx, workload, seed, seconds, tasks, between=lambda gap, gaps: None):
    """Run the deck the workload's fixed number of rounds for a run of
    `seconds`, each round in its own order, and give each round's records
    the host scale read between its tasks.  `between(gap, gaps)` runs,
    untimed, before the first round (gap 0) and after each round.  Stops
    early only if the next round would end past HARD_LIMIT_S."""
    records, elapsed, done = [], 0.0, 0
    rounds = wl.rounds(workload, seconds)
    between(0, rounds + 1)
    while done < rounds and elapsed + elapsed / max(done, 1) <= HARD_LIMIT_S:
        order = wl.round_order(seed, done, len(tasks))
        started = time.perf_counter()
        batch, readings, last = [], [reference_reading()], time.perf_counter()
        for i in order:
            batch.append(run_one(wl, ctx, tasks[i], i))
            if time.perf_counter() - last >= REFERENCE_EVERY_S:
                readings.append(reference_reading())
                last = time.perf_counter()
        elapsed += time.perf_counter() - started
        scale = host_scale(readings)
        for record in batch:
            record.scale = scale
        records += batch
        done += 1
        between(done, rounds + 1)
    return records, elapsed, done


def best_seconds(records, scaled=True) -> list:
    """Each deck task's shortest time over the rounds that ran it, at
    reference speed unless `scaled` is false."""
    best = {}
    for record in records:
        seconds = record.seconds / record.scale if scaled else record.seconds
        best[record.index] = min(seconds, best.get(record.index, seconds))
    return list(best.values())


def timing_values(best) -> dict:
    lat_ms = sorted(b * 1000.0 for b in best)
    return {
        "tasks_per_s": len(best) / sum(best),
        "task_ms_p50": statistics.median(lat_ms),
        "task_ms_p90": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
    }


def judge(wl, ctx, records) -> list:
    verdicts = []
    for record in records:
        if record.error:
            verdicts.append(wl.Verdict(False, False, record.error))
            continue
        try:
            verdicts.append(wl.check_task(record.task, record.out, ctx))
        except Exception as exc:  # a malformed answer fails its oracle
            verdicts.append(wl.Verdict(False, False, f"oracle raised {type(exc).__name__}: {exc}"))
    failed = [(r, v) for r, v in zip(records, verdicts) if not v.ok]
    for record, verdict in failed[:MAX_REPORTED_FAILURES]:
        print(f"perfbench: FAILED {record.task.family} {record.task.key()[:300]}: "
              f"{verdict.note[:300]}", file=sys.stderr)
    if len(failed) > MAX_REPORTED_FAILURES:
        print(f"perfbench: ... and {len(failed) - MAX_REPORTED_FAILURES} more failed tasks",
              file=sys.stderr)
    return verdicts


def end_to_end(records, verdicts, setup_samples, peak_rss_kb) -> dict:
    """Latencies and the rate come from each task's best time over the
    rounds at reference speed; the fractions count every run of every task."""
    values = {
        **timing_values(best_seconds(records)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ok_frac": sum(v.ok for v in verdicts) / len(records),
        "solved_frac": sum(v.solved for v in verdicts) / len(records),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _wall_ms(cmd, env) -> tuple[float, subprocess.CompletedProcess]:
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return (time.perf_counter() - started) * 1000.0, done


def _median0(values) -> float:
    return statistics.median(values) if values else 0.0


def cli_startup(env) -> dict:
    """Interpreter start, package import and its -X importtime breakdown."""
    python = sys.executable
    bare = [_wall_ms([python, "-c", "pass"], env)[0] for _ in range(CLI_PROBES)]
    full = [_wall_ms([python, "-c", "import quditbell.cli"], env)[0] for _ in range(CLI_PROBES)]
    parts = {"numpy": [], "click": [], "quditbell": []}
    for _ in range(CLI_PROBES):
        _, done = _wall_ms([python, "-X", "importtime", "-c", "import quditbell.cli"], env)
        cumulative = {}
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1000.0)
        numpy_ms, click_ms = cumulative.get("numpy", 0.0), cumulative.get("click", 0.0)
        parts["numpy"].append(numpy_ms)
        parts["click"].append(click_ms)
        parts["quditbell"].append(cumulative.get("quditbell.cli", 0.0) - numpy_ms - click_ms)
    interpreter = statistics.median(bare)
    return {
        "cli.interpreter_ms": (interpreter, "ms"),
        "cli.import_ms": (statistics.median(full) - interpreter, "ms"),
        "cli.import.numpy_ms": (statistics.median(parts["numpy"]), "ms"),
        "cli.import.click_ms": (statistics.median(parts["click"]), "ms"),
        "cli.import.quditbell_ms": (statistics.median(parts["quditbell"]), "ms"),
    }


def per_layer(spans_mod, tracer, wl, records, extras) -> dict:
    layers = spans_mod.aggregate(tracer.spans)

    def lay(name):
        return layers.get(name, spans_mod.Layer())

    def ratio(num, den):
        return num / den if den else 0.0

    ghz = lay("quantum.ghz_bell_value")
    small = [s for info, s in zip(ghz.infos, ghz.selfs) if info["n"] <= 4]
    large = [s for info, s in zip(ghz.infos, ghz.selfs) if info["n"] >= 10]
    table_load, dense = lay("scenario.table_load"), lay("quantum.joint_probabilities")
    hlnhv, lhv, search = lay("bounds.hlnhv_bound"), lay("bounds.lhv_bound"), lay("optimize.search")

    in_oracle = spans_mod.under(tracer.spans, spans_mod.ORACLE)
    in_search = spans_mod.under(tracer.spans, "optimize.search")
    objective_calls = sum(
        1 for span, o, s in zip(tracer.spans, in_oracle, in_search)
        if s and not o and span.name == "quantum.ghz_bell_value"
    )
    search_tasks = sum(1 for r in records if r.task.family in ("phases", "restarts"))
    finals, at_max = [], 0
    for record in records:
        if record.error:
            continue
        for value in wl.restart_values(record.task, record.out):
            finals.append(value)
            scenario = wl.qb.BellScenario(record.task.spec["n"], record.task.spec["d"])
            at_max += value >= wl.qb.max_violation(scenario) - wl.SOLVED_TOL

    metrics = {
        "scenario.bell_value.calls": (lay("scenario.bell_value").calls, "count"),
        "scenario.bell_value.self_s": (lay("scenario.bell_value").self_s, "s"),
        "scenario.table_load.self_s": (table_load.self_s, "s"),
        "scenario.table_load.entries_per_s": (ratio(table_load.total("entries"), table_load.self_s), "1/s"),
        "scenario.table_dump.self_s": (lay("scenario.table_dump").self_s, "s"),
        "quantum.ghz_bell_value.calls": (ghz.calls, "count"),
        "quantum.ghz_bell_value.self_s": (ghz.self_s, "s"),
        "quantum.ghz_bell_value.small_us_per_call": (ratio(sum(small) * 1e6, len(small)), "us"),
        "quantum.ghz_bell_value.large_ms_per_call": (ratio(sum(large) * 1e3, len(large)), "ms"),
        "quantum.ghz_table.self_s": (lay("quantum.ghz_table").self_s, "s"),
        "quantum.joint_probabilities.self_s": (dense.self_s, "s"),
        "quantum.joint_probabilities.settings": (dense.total("settings"), "count"),
        "quantum.joint_probabilities.flops_computed": (dense.total("flops"), "flop"),
        "quantum.state_build.self_s": (lay("quantum.state_build").self_s, "s"),
        "bounds.hlnhv_bound.calls": (hlnhv.calls, "count"),
        "bounds.hlnhv_bound.self_s": (hlnhv.self_s, "s"),
        "bounds.hlnhv_bound.space": (hlnhv.total("space"), "count"),
        "bounds.hlnhv_bound.space_per_s": (ratio(hlnhv.total("space"), hlnhv.self_s), "1/s"),
        "bounds.lhv_bound.self_s": (lhv.self_s, "s"),
        "bounds.lhv_bound.space": (lhv.total("space"), "count"),
        "bounds.grouping.self_s": (lay("bounds.grouping").self_s, "s"),
        "optimize.search.calls": (search.calls, "count"),
        "optimize.search.self_s": (search.self_s, "s"),
        "optimize.objective_calls": (objective_calls, "count"),
        "optimize.objective_calls_per_task": (ratio(objective_calls, search_tasks), "count"),
        "optimize.restarts_at_max_frac": (ratio(at_max, len(finals)), "ratio"),
        "cli.self_s": (lay("cli").self_s, "s"),
        "cli.exit_code_mismatches": (0, "count"),
    }
    # measured on the cli workload only; 0 elsewhere
    for name in CLI_ONLY_MS:
        metrics[name] = (0.0, "ms")
    metrics.update(extras)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(wl, ctx, workload, tasks, child_env):
    """One round, each task untraced and traced; returns records, verdicts and
    per-layer metrics.  On the cli workload the round first runs as
    subprocesses for the per-command times and exit codes, then calls
    cli.run(argv) in this process for the traced part."""
    import spans as spans_mod

    extras, records = {}, []
    if workload == "cli":
        records = run_tasks(wl, ctx, tasks)
        by_command = {}
        for command, expected, got, ms in ctx.steps:
            if expected == 0:
                by_command.setdefault(command, []).append(ms)
        for command in CLI_COMMANDS:
            extras[f"cli.{command}.ms_p50"] = (_median0(by_command.get(command)), "ms")
        extras["cli.exit_code_mismatches"] = (sum(e != g for _, e, g, _ in ctx.steps), "count")
        extras.update(cli_startup(child_env))
        ctx.in_process = True
        run_tasks(wl, ctx, tasks)  # first in-process calls import click and start the pool

    # Each task runs untraced and traced back to back, in alternating order,
    # so drift in machine speed cancels out of the overhead; the median of the
    # per-task ratios keeps one noisy task (the CLI's worker pool) from
    # setting it.
    tracer = spans_mod.Tracer()
    traced, ratios = [], []
    for index, task in enumerate(tasks):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                untraced_s = run_one(wl, ctx, task, index).seconds
                continue
            tracer.task = index
            spans_mod.install_quditbell(tracer)
            try:
                traced.append(run_one(wl, ctx, task, index))
            finally:
                tracer.uninstall()
        ratios.append(traced[-1].seconds / untraced_s)
    spans_mod.install_quditbell(tracer)
    try:
        with tracer.span(spans_mod.ORACLE):
            verdicts = judge(wl, ctx, records + traced)
    finally:
        tracer.uninstall()
    extras["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    metrics = per_layer(spans_mod, tracer, wl, traced, extras)
    return records + traced, verdicts, metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(args, wl, records, rounds, elapsed, setup_samples, metrics) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    best_ms = [b * 1000.0 for b in best_seconds(records)]
    p90 = metrics.get("task_ms_p90", {}).get("value")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": rounds,
        "timed_s": elapsed,
        "deck_tasks": len(best_ms),
        "task_runs": len(records),
        "tasks_by_family": dict(sorted(Counter(r.task.family for r in records).items())),
        "p90_samples_beyond": None if p90 is None else sum(x > p90 for x in best_ms),
        "host_scale_by_round": [r.scale for r in records[::len(best_ms)]],
        "unscaled": timing_values(best_seconds(records, scaled=False)),
        "setup_samples_s": setup_samples,
        "commit": git_commit(),
        "src_sha256_16": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    real_stdout, sys.stdout = sys.stdout, sys.stderr  # only the result goes to stdout
    if not (SRC / "quditbell" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'quditbell'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    child_env = pin_environment()
    wl, ctx, tasks = setup(args.workload, args.seed, child_env)
    try:
        setup_raw_s = time.perf_counter() - _T0
        setup_s = setup_raw_s / host_scale([reference_reading() for _ in range(5)])
        if args.setup_probe:
            print(repr(setup_s), file=real_stdout)
            return 0
        if args.trace:
            records, verdicts, metrics = traced_run(wl, ctx, args.workload, tasks, child_env)
            rounds, elapsed, samples = 1, sum(r.seconds for r in records), [setup_s]
        else:
            # Set-up is a short burst, so its samples are spread evenly over
            # the gaps before, between and after the rounds.
            samples = [setup_s]

            def probe(gap, gaps):
                due = SETUP_PROBES * (gap + 1) // gaps - SETUP_PROBES * gap // gaps
                samples.extend(setup_probe(args) for _ in range(due))

            records, elapsed, rounds = timed_rounds(wl, ctx, args.workload, args.seed,
                                                    args.seconds, tasks, probe)
            if args.workload == "cli":
                peak_kb = max(ctx.child_rss_kb)
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            verdicts = judge(wl, ctx, records)
            metrics = end_to_end(records, verdicts, samples, peak_kb)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    failed = sum(not v.ok for v in verdicts)
    meta = metadata(args, wl, records, rounds, elapsed, samples, metrics)
    for name, metric in metrics.items():
        print(f"perfbench: {args.workload:8s} {name:45s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    print("perfbench-meta " + json.dumps(meta), file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), file=real_stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
