"""Command-line front end: bounds, violations, visibility scans, table evaluation.

Exit codes are a stable contract: 0 success, 1 input error, 2 resource or
budget error.  Reports are JSON on stdout (CSV only from `scan --format csv`);
--out writes them atomically to a file, and --emit-table writes compact JSON.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from typing import Optional

import click

from .bounds import (
    DEFAULT_BUDGET,
    Bipartition,
    BudgetExceededError,
    hlnhv_bound,
    lhv_bound,
    strategy_space_exponent,
)
from .optimize import (
    critical_visibility,
    max_violation,
    optimal_angles,
    optimize_with_restarts,
)
from .quantum import (
    DENSE_DIMENSION_LIMIT,
    DenseLimitError,
    PhaseConfiguration,
    ghz_bell_value,
    ghz_state,
    ghz_table,
    joint_probabilities,
)
from .scenario import (
    BellScenario,
    JointProbabilityTable,
    TableFormatError,
    bell_value,
    correlations,
)

ANGLES_MODES = ("optimal", "zero", "optimized-symmetric", "optimized-free")

__all__ = ["cli", "main", "run"]


class InputError(ValueError):
    """User-supplied arguments or files are invalid (exit code 1)."""


def _scenario(n: int, d: int) -> BellScenario:
    if n < 2:
        raise InputError(f"need at least 2 parties, got {n}")
    try:
        return BellScenario(n, d)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _ghz_scenario(n: int, d: int) -> BellScenario:
    """Scenario for the GHZ commands, refused before any work where the
    maximal violation (and so every report value) leaves the float range."""
    scenario = _scenario(n, d)
    try:
        max_violation(scenario)
    except OverflowError as exc:
        raise InputError(
            f"n={n}, d={d}: the maximal violation 2^(n-2) times the two-qudit "
            "maximum exceeds the float range"
        ) from exc
    return scenario


def _sig10(x: float) -> float:
    """Round a float to 10 significant digits for reporting."""
    return float(f"{x:.10g}")


def _csv_lines(rows: list[dict]):
    if rows:
        header = list(rows[0])
        yield ",".join(header) + "\n"
        for row in rows:
            cells = []
            for key in header:
                value = row[key]
                cells.append(f"{value:.10g}" if isinstance(value, float) else str(value))
            yield ",".join(cells) + "\n"


def _atomic_write(path: str, chunks) -> None:
    """Write chunks to a temp file beside path and rename it; OSError names path."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quditbell-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(payload, out_path: Optional[str], fmt: str = "json") -> None:
    chunks = _csv_lines(payload) if fmt == "csv" else [json.dumps(payload, indent=2) + "\n"]
    if out_path:
        _atomic_write(out_path, chunks)
    else:
        click.echo("".join(chunks), nl=False)


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range 'a:b' (or a single value)."""
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            return int(lo_s), int(hi_s)
        return int(text), int(text)
    except ValueError as exc:
        raise InputError(f"range must look like '2:4', got {text!r}") from exc


@click.group()
def cli():
    """N-qudit Bell-type inequality toolkit."""


_common = [
    click.option("--n", type=int, required=True, help="Number of parties (>= 2)."),
    click.option("--d", type=int, required=True, help="Outcomes per measurement (>= 2)."),
    click.option("--out", "out_path", type=click.Path(), default=None,
                 help="Write the report to this file (atomic) instead of stdout."),
]


def _add_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func
    return wrap


@cli.command()
@_add_options(_common)
@click.option("--model", type=click.Choice(["hlnhv", "lhv"]), default="hlnhv",
              show_default=True, help="Hidden-variable model to bound.")
@click.option("--partition", default=None,
              help="Bipartition for hlnhv, slash-separated comma lists like '1,2/3'.")
@click.option("--budget", type=int, default=DEFAULT_BUDGET,
              show_default=True, help="Largest strategy space the search may certify.")
def bound(n, d, out_path, model, partition, budget):
    """Certify the HLNHV (or LHV) bound by an exact search of all strategies."""
    parsed = None if partition is None else Bipartition.parse(partition, n)
    scenario = _scenario(n, d)
    started = time.perf_counter()
    if model == "hlnhv":
        if parsed is None:
            raise InputError("hlnhv bound needs --partition, e.g. '1,2/3'")
        value, witness = hlnhv_bound(scenario, parsed, budget=budget)
        part = witness.partition
        witness_json = {"xi": dict(witness.xi), "zeta": dict(witness.zeta)}
        partition_json = [list(part.block_a), list(part.block_b)]
    else:
        part = None
        value, local = lhv_bound(scenario, budget=budget)
        witness_json = {
            f"party-{p + 1}": {"1": o1, "2": o2} for p, (o1, o2) in enumerate(local)
        }
        partition_json = None
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    enumerated = d ** strategy_space_exponent(scenario, part)
    _emit(
        {
            "n": n,
            "d": d,
            "model": model,
            "partition": partition_json,
            "bound": str(value),
            "bound_float": float(value),
            "witness": witness_json,
            "strategies_enumerated": enumerated,
            "elapsed_ms": _sig10(elapsed_ms),
        },
        out_path,
    )


@cli.command()
@_add_options(_common)
@click.option("--angles", "angles_mode", type=click.Choice(ANGLES_MODES),
              default="optimal", show_default=True,
              help="Measurement phases: the closed-form optimum, all zeros, or a fresh search.")
@click.option("--method", type=click.Choice(["closed-form", "dense"]),
              default="closed-form", show_default=True,
              help="Probability path for the GHZ state: the closed form at any "
                   f"size, or the dense density-matrix oracle for d^N <= {DENSE_DIMENSION_LIMIT}.")
@click.option("--emit-table", type=click.Path(), default=None,
              help="Also write the probability table JSON to this file; refused "
                   f"past {DENSE_DIMENSION_LIMIT**2} = 2^N d^N entries.")
@click.option("--restarts", type=int, default=20, show_default=True,
              help="Random restarts for the optimized-* modes.")
@click.option("--budget", type=int, default=20_000, show_default=True,
              help="Objective evaluations per restart for the optimized-* modes.")
@click.option("--seed", type=int, default=0, show_default=True)
def violation(n, d, out_path, angles_mode, method, emit_table, restarts, budget, seed):
    """Quantum Bell value of the GHZ state at the requested angles."""
    scenario = _ghz_scenario(n, d)
    # size refusals come first: they must not wait for the phase search
    if method == "dense" and scenario.n_outcome_tuples > DENSE_DIMENSION_LIMIT:
        raise DenseLimitError(
            f"dense path supports d^N <= {DENSE_DIMENSION_LIMIT}, "
            f"got {d}^{n}; use --method closed-form"
        )
    # the table holds (2d)^N entries: no more than the N=12/d=2 one the dense path emits
    if emit_table and (2 * d) ** n > DENSE_DIMENSION_LIMIT**2:
        raise DenseLimitError(
            f"--emit-table needs 2^{n}*{d}^{n} table entries, more than the "
            f"{DENSE_DIMENSION_LIMIT**2} allowed"
        )
    if angles_mode == "optimal":
        phases = optimal_angles(scenario)
    elif angles_mode == "zero":
        phases = PhaseConfiguration.zero(scenario)
    else:
        phases = optimize_with_restarts(
            scenario, restarts=restarts, budget=budget, seed=seed,
            mode="symmetric" if angles_mode == "optimized-symmetric" else "free",
        ).config
    if method == "dense":
        table = joint_probabilities(ghz_state(scenario), phases)
        value = bell_value(table)
    else:
        table = ghz_table(phases) if emit_table else None
        value = ghz_bell_value(phases)
    if emit_table:
        _atomic_write(emit_table, table.json_chunks())
    ceiling = max_violation(scenario)
    _emit(
        {
            "n": n,
            "d": d,
            "angles_mode": angles_mode,
            "bell_value": _sig10(value),
            "closed_form_max": _sig10(ceiling),
            "difference": _sig10(value - ceiling),
            "hlnhv_bound": _sig10(2.0 ** (n - 1)),
            "witness_fired": value > 2.0 ** (n - 1),
            "angles": phases.to_json_dict(),
        },
        out_path,
    )


@cli.command()
@_add_options(_common)
def visibility(n, d, out_path):
    """Critical visibility of the white-noise GHZ mixture."""
    payload = critical_visibility(_ghz_scenario(n, d)).to_json_dict()
    for key in ("max_value", "ratio", "critical_visibility", "svetlichny_visibility"):
        payload[key] = _sig10(payload[key])
    payload["hlnhv_bound"] = _sig10(2.0 ** (n - 1))
    _emit(payload, out_path)


@cli.command()
@click.option("--n-range", default="2:4", show_default=True,
              help="Inclusive party range 'lo:hi'.")
@click.option("--d-range", default="2:3", show_default=True,
              help="Inclusive dimension range 'lo:hi'.")
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def scan(n_range, d_range, out_path, fmt):
    """Tabulate bound, maximal violation, ratio, and v_cr over a grid."""
    lo_n, hi_n = _parse_range(n_range)
    lo_d, hi_d = _parse_range(d_range)
    if (lo_n <= hi_n and lo_n < 2) or (lo_d <= hi_d and lo_d < 2):
        raise InputError("scan requires n >= 2 and d >= 2")
    rows = []
    for n in range(lo_n, hi_n + 1):
        for d in range(lo_d, hi_d + 1):
            report = critical_visibility(_ghz_scenario(n, d))
            rows.append(
                {
                    "n": n,
                    "d": d,
                    "hlnhv_bound": _sig10(2.0 ** (n - 1)),
                    "max_violation": _sig10(report.max_value),
                    "ratio": _sig10(report.ratio),
                    "v_cr": _sig10(report.critical_visibility),
                }
            )
    _emit(rows, out_path, fmt)


@cli.command("eval")
@click.argument("table_file", type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None)
def eval_table(table_file, out_path):
    """Evaluate the Bell functional on a probability-table JSON file."""
    try:
        with open(table_file) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {table_file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{table_file} is not valid JSON: {exc}") from exc
    try:
        table = JointProbabilityTable.from_json_dict(payload)
    except TableFormatError as exc:
        raise InputError(f"{table_file}: {exc}") from exc
    _scenario(table.scenario.n_parties, table.scenario.dimension)  # refuses N < 2, as elsewhere
    q_values = correlations(table).tolist()
    value = -sum(q_values)
    bound_value = 2.0 ** (table.scenario.n_parties - 1)
    _emit(
        {
            "n": table.scenario.n_parties,
            "d": table.scenario.dimension,
            "bell_value": _sig10(value),
            "q_values": dict(zip(table.scenario.setting_strings(), map(_sig10, q_values))),
            "hlnhv_bound": _sig10(bound_value),
            "witness_fired": value > bound_value,
        },
        out_path,
    )


def run(argv=None) -> int:
    """Invoke the CLI and map exceptions onto the exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except (InputError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except (BudgetExceededError, DenseLimitError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except MemoryError as exc:
        click.echo(f"error: out of memory: {str(exc) or 'allocation failed'}", err=True)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
