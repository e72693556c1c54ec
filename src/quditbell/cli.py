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
import numpy as np

from .bounds import (
    DEFAULT_BUDGET,
    Bipartition,
    BudgetExceededError,
    hlnhv_bound,
    lhv_bound,
    strategy_space_exponent,
)
from .optimize import (
    SVETLICHNY_VISIBILITY,
    ViolationReport,
    critical_visibility,
    optimal_angles,
    optimize_with_restarts,
)
from .quantum import (
    DENSE_DIMENSION_LIMIT,
    DenseLimitError,
    PhaseConfiguration,
    _check_dense_size,
    _check_table_size,
    ghz_bell_value,
    ghz_state,
    ghz_table,
    joint_probabilities,
)
from .scenario import (
    BellScenario,
    JointProbabilityTable,
    TableFormatError,
    _brief,
    _count,
    bell_value,
    correlation_numerators,
    functional_value,
)

ANGLES_MODES = ("optimal", "zero", "optimized-symmetric", "optimized-free")

__all__ = ["cli", "main", "run"]


def _scenario(n: int, d: int) -> BellScenario:
    return BellScenario(_count(n, "n", 2), d)


def _ghz_report(n: int, d: int) -> ViolationReport:
    """critical_visibility's report, refused before any work past the float range."""
    try:
        return critical_visibility(_scenario(n, d))
    except OverflowError as exc:
        raise ValueError(
            f"n={_brief(n)}, d={_brief(d)}: the maximal violation 2^(n-2) times the two-qudit "
            "maximum exceeds the float range"
        ) from exc


def _witness_fired(value: float, n: int) -> bool:
    """The report's verdict: the Bell value exceeds the HLNHV bound 2^(N-1)."""
    return value > 2.0 ** (n - 1)


def _sig10(x: float) -> float:
    """Round a float to 10 significant digits for reporting."""
    return float(f"{x:.10g}")


def _csv_lines(rows: list[dict]):
    if rows:
        header = list(rows[0])
        yield ",".join(header) + "\n"
        for row in rows:
            cells = (row[key] for key in header)
            yield ",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in cells) + "\n"


def _writable(ctx, param, path: Optional[str]) -> Optional[str]:
    """Option callback: refuse, before any work, a directory or a path in an unwritable one."""
    if path is not None:
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: Is a directory")
        try:
            tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))).close()
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def _atomic_write(path: str, chunks) -> None:
    """Write chunks to a temp file beside path and rename it; OSError names path.

    mkstemp makes the temp file owner-only, so before the rename it takes path's
    mode, or a new file's, 0o666 under the umask, when path does not exist.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quditbell-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(chunks)
            umask = os.umask(0o077)  # read by setting it back: the CLI is single-threaded
            os.umask(umask)
            mode = os.stat(path).st_mode if os.path.exists(path) else 0o666 & ~umask
            os.chmod(tmp, mode & 0o7777)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(payload, out_path: Optional[str], fmt: str = "json") -> None:
    chunks = _csv_lines(payload) if fmt == "csv" else [json.dumps(payload, indent=2) + "\n"]
    if out_path:
        _atomic_write(out_path, chunks)
    else:
        click.echo("".join(chunks), nl=False)


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range 'a:b' (or a single value)."""
    lo, colon, hi = text.partition(":")
    try:
        return int(lo), int(hi if colon else lo)
    except ValueError as exc:
        raise ValueError(f"range must look like '2:4', got {_brief(text)}") from exc


@click.group()
def cli():
    """N-qudit Bell-type inequality toolkit."""


n_option = click.option("--n", type=int, required=True, help="Number of parties (>= 2).")
d_option = click.option("--d", type=int, required=True, help="Outcomes per measurement (>= 2).")
out_option = click.option("--out", "out_path", type=click.Path(), default=None, callback=_writable,
                          help="Write the report to this file (atomic) instead of stdout.")


@cli.command()
@n_option
@d_option
@out_option
@click.option("--model", type=click.Choice(["hlnhv", "lhv"]), default="hlnhv",
              show_default=True, help="Hidden-variable model to bound.")
@click.option("--partition", default=None,
              help="Bipartition for hlnhv, slash-separated comma lists like '1,2/3'.")
@click.option("--budget", type=int, default=DEFAULT_BUDGET,
              show_default=True, help="Largest strategy space the search may certify.")
def bound(n, d, out_path, model, partition, budget):
    """Certify the HLNHV (or LHV) bound by an exact search of all strategies."""
    if model == "lhv" and partition is not None:
        raise ValueError("--partition applies to --model hlnhv only")
    parsed = None if partition is None else Bipartition.parse(partition, n)
    scenario = _scenario(n, d)
    started = time.perf_counter()
    if model == "hlnhv":
        if parsed is None:
            raise ValueError("hlnhv bound needs --partition, e.g. '1,2/3'")
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
@n_option
@d_option
@out_option
@click.option("--angles", "angles_mode", type=click.Choice(ANGLES_MODES),
              default="optimal", show_default=True,
              help="Measurement phases: the closed-form optimum, all zeros, or a fresh search.")
@click.option("--method", type=click.Choice(["closed-form", "dense"]),
              default="closed-form", show_default=True,
              help="Probability path for the GHZ state: the closed form at any "
                   f"size, or the dense density-matrix oracle for d^N <= {DENSE_DIMENSION_LIMIT}.")
@click.option("--emit-table", type=click.Path(), default=None, callback=_writable,
              help="Also write the probability table JSON to this file; refused "
                   f"past {DENSE_DIMENSION_LIMIT**2} = 2^N d^N entries.")
@click.option("--restarts", type=int, default=20, show_default=True,
              help="Random restarts for the optimized-* modes.")
@click.option("--budget", type=int, default=20_000, show_default=True,
              help="Moves per restart (the start counts as one) for the optimized-* modes.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed of the optimized-* modes' random starts.")
def violation(n, d, out_path, angles_mode, method, emit_table, restarts, budget, seed):
    """Quantum Bell value of the GHZ state at the requested angles."""
    # the report would silently replace the table
    if out_path and emit_table and os.path.realpath(out_path) == os.path.realpath(emit_table):
        raise ValueError(f"--out and --emit-table name the same file: {emit_table}")
    report = _ghz_report(n, d)
    scenario = report.scenario
    # size refusals come first: they must not wait for the phase search
    if method == "dense":
        _check_dense_size(scenario)
    if emit_table:
        _check_table_size(scenario)
    search = None
    if angles_mode == "optimal":
        phases = optimal_angles(scenario)
    elif angles_mode == "zero":
        phases = PhaseConfiguration.zero(scenario)
    else:
        search = optimize_with_restarts(
            scenario, restarts=restarts, budget=budget, seed=seed,
            mode="symmetric" if angles_mode == "optimized-symmetric" else "free",
        )
        phases = search.config
    if method == "dense":
        table = joint_probabilities(ghz_state(scenario), phases)
        value = bell_value(table)
    else:
        table = ghz_table(phases) if emit_table else None
        # the search's value is the objective at its phases: no second evaluation
        value = ghz_bell_value(phases) if search is None else search.value
    if emit_table:
        _atomic_write(emit_table, table.json_chunks())
    payload = {
        "n": n,
        "d": d,
        "angles_mode": angles_mode,
        "bell_value": _sig10(value),
        "closed_form_max": _sig10(report.max_value),
        "difference": _sig10(value - report.max_value),
        "hlnhv_bound": _sig10(2.0 ** (n - 1)),
        "witness_fired": _witness_fired(value, n),
        "angles": phases.phases.tolist(),
    }
    if search is not None:
        payload["restart_values"] = [_sig10(v) for v in search.restart_values]
    _emit(payload, out_path)


@cli.command()
@n_option
@d_option
@out_option
def visibility(n, d, out_path):
    """Critical visibility of the white-noise GHZ mixture."""
    report = _ghz_report(n, d)
    _emit(
        {
            "n": n,
            "d": d,
            "max_value": _sig10(report.max_value),
            "ratio": _sig10(report.ratio),
            "critical_visibility": _sig10(report.critical_visibility),
            "svetlichny_visibility": _sig10(SVETLICHNY_VISIBILITY),
            "beats_svetlichny": report.beats_svetlichny,
            "angles_mode": "optimal",
            "hlnhv_bound": _sig10(2.0 ** (n - 1)),
        },
        out_path,
    )


@cli.command()
@click.option("--n-range", default="2:4", show_default=True,
              help="Inclusive party range 'lo:hi'.")
@click.option("--d-range", default="2:3", show_default=True,
              help="Inclusive dimension range 'lo:hi'.")
@out_option
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def scan(n_range, d_range, out_path, fmt):
    """Tabulate bound, maximal violation, ratio, and v_cr over a grid."""
    lo_n, hi_n = _parse_range(n_range)
    lo_d, hi_d = _parse_range(d_range)
    for lo, hi, name in ((lo_n, hi_n, "n"), (lo_d, hi_d, "d")):
        if lo <= hi:  # an empty range is an empty scan
            _count(lo, name, 2)
    rows = []
    for n in range(lo_n, hi_n + 1):
        for d in range(lo_d, hi_d + 1):
            report = _ghz_report(n, d)
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
@out_option
def eval_table(table_file, out_path):
    """Evaluate the Bell functional on a probability-table JSON file."""
    try:
        with open(table_file) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {table_file}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or a number past 4,300 digits
        raise ValueError(f"{table_file} is not valid JSON: {exc}") from exc
    try:
        # a row summing past the float range is refused by the error line alone
        with np.errstate(over="ignore"):
            table = JointProbabilityTable.from_json_dict(payload)
    except TableFormatError as exc:
        raise ValueError(f"{table_file}: {exc}") from exc
    n, d = table.scenario.n_parties, table.scenario.dimension
    _scenario(n, d)  # refuses N < 2, as elsewhere
    numerators = correlation_numerators(table)
    value = functional_value(numerators, d)
    q_values = (numerators / (d - 1)).tolist()
    _emit(
        {
            "n": n,
            "d": d,
            "bell_value": _sig10(value),
            "q_values": dict(zip(table.scenario.setting_strings(), map(_sig10, q_values))),
            "hlnhv_bound": _sig10(2.0 ** (n - 1)),
            "witness_fired": _witness_fired(value, n),
        },
        out_path,
    )


def run(argv=None) -> int:
    """Invoke the CLI and map exceptions onto the exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.Abort:  # Ctrl-C: click's own report, with no traceback
        click.echo("Aborted!", err=True)
        return 1
    except click.ClickException as exc:
        if len(exc.message) > 200:  # click writes a typed value in full: keep head and tail
            exc.message = f"{exc.message[:100]}...{exc.message[-100:]}"
        exc.show()
        return 1
    except (ValueError, BudgetExceededError, DenseLimitError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1 if isinstance(exc, ValueError) else 2
    except MemoryError as exc:
        click.echo(f"error: out of memory: {str(exc) or 'allocation failed'}", err=True)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
