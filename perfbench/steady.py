"""Steadiness check: run one workload k times and compare each end-to-end
metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload search --runs 5 [--first-seed 1]

Each run uses its own seed (first-seed, first-seed + 1, ...).  The spread is
the distance between the first and third quartile of the k values, as
statistics.quantiles(values, n=4) gives them, divided by their median.  A
metric, setup_s included, is steady when its spread stays below a third of
its bound.  Each run lasts run_seconds from BENCHMARK.json.  Prints one line
per metric and, last, a JSON summary.  Exits 1 when a run fails or reports a
wrong answer, or when a metric is not steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}: {done.stderr[-1000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least 2 runs for quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    values, wrong = {}, 0
    for k in range(args.runs):
        result = run_once(args.workload, args.first_seed + k, seconds)
        wrong += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.first_seed + k}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    summary, steady = {}, wrong == 0
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        got = spread(values[name])
        ok = got < bound / 3
        steady &= ok
        summary[name] = {"median": statistics.median(values[name]), "spread": got,
                         "bound": bound, "steady": ok, "values": values[name]}
        print(f"{args.workload:8s} {name:14s} median {statistics.median(values[name]):12.6g} "
              f"{metric['unit']:6s} spread {got:7.4f} bound {bound:5.3f} "
              f"{'ok' if ok else 'NOT STEADY'}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "wrong_runs": wrong,
                      "steady": steady, "metrics": summary}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
