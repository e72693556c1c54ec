"""In-memory span tracing around the public functions of each quditbell layer.

The tracer replaces a public function at every module binding that holds it
(``quditbell.optimize.ghz_bell_value`` and ``quditbell.cli.hlnhv_bound`` are
separate bindings, because the modules import names directly) and records one
span per call: name, start, end, parent span, task id and a small info dict.
Spans stay in memory until the run ends.  Nothing inside the program is
changed; uninstalling restores every binding.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

ORACLE = "oracle"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    task: int
    info: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; single-threaded, parents tracked by a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task = -1
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.task, info or {})
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func, annotate=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            info = annotate(*args, **kwargs) if annotate else None
            with self.span(name, info):
                return func(*args, **kwargs)

        return traced

    def patch_function(self, func, name: str, annotate=None, package="quditbell"):
        """Replace func at every binding in the package's loaded modules."""
        traced = self.wrap(name, func, annotate)
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, traced)
                    self._undo.append((module, attr, func))
                    hits += 1
        if hits == 0:
            raise LookupError(f"no binding of {func!r} found under {package}")

    def patch_method(self, cls, attr: str, name: str, annotate=None):
        """Wrap a plain method or classmethod on its class."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, annotate))
        else:
            replacement = self.wrap(name, original, annotate)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def under(spans: list[Span], name: str) -> list[bool]:
    """For each span, whether it or one of its ancestors is called name."""
    flags: list[bool] = []
    for span in spans:  # parents always precede their children
        flags.append(span.name == name or (span.parent >= 0 and flags[span.parent]))
    return flags


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    infos: list = field(default_factory=list)
    selfs: list = field(default_factory=list)

    def total(self, key: str) -> float:
        return sum(info.get(key, 0) for info in self.infos)


def aggregate(spans: list[Span]) -> dict[str, Layer]:
    """Per span name: call count, summed self time and the per-call infos.

    Spans under an ``oracle`` span belong to answer checking and are left out.
    """
    excluded = under(spans, ORACLE)
    selfs = self_times(spans)
    layers: dict[str, Layer] = defaultdict(Layer)
    for span, skip, own in zip(spans, excluded, selfs):
        if skip:
            continue
        layer = layers[span.name]
        layer.calls += 1
        layer.self_s += own
        layer.infos.append(span.info)
        layer.selfs.append(own)
    return layers


def install_quditbell(tracer: Tracer) -> None:
    """Wrap the public functions of the scenario, quantum, bounds, optimize and
    cli layers.  The package must already be imported (cli included)."""
    import quditbell as qb
    from quditbell import cli

    def scenario_of(config, *args, **kwargs):
        return {"n": config.scenario.n_parties, "d": config.scenario.dimension}

    def dense_work(rho, config, *args, **kwargs):
        n, d = rho.scenario.n_parties, rho.scenario.dimension
        dim = d**n
        # two complex dim x dim matrix products per setting, 8 real flops per
        # complex multiply-add; the Kronecker build and diagonal read are left out
        return {"settings": 2**n, "flops": 2**n * 2 * 8 * dim**3}

    def hlnhv_space(scenario, partition, *args, **kwargs):
        d = scenario.dimension
        return {"space": d ** (2 ** len(partition.block_a)) * d ** (2 ** len(partition.block_b))}

    def lhv_space(scenario, *args, **kwargs):
        return {"space": scenario.dimension ** (2 * scenario.n_parties)}

    def table_entries(cls, payload, *args, **kwargs):
        try:
            n, d = int(payload["n"]), int(payload["d"])
        except (TypeError, KeyError, ValueError):
            return {}
        return {"entries": 2**n * d**n}

    functions = [
        (qb.bell_value, "scenario.bell_value", None),
        (qb.ghz_bell_value, "quantum.ghz_bell_value", scenario_of),
        (qb.ghz_table, "quantum.ghz_table", None),
        (qb.joint_probabilities, "quantum.joint_probabilities", dense_work),
        (qb.ghz_state, "quantum.state_build", None),
        (qb.mix_with_noise, "quantum.state_build", None),
        (qb.hlnhv_bound, "bounds.hlnhv_bound", hlnhv_space),
        (qb.lhv_bound, "bounds.lhv_bound", lhv_space),
        (qb.build_grouping, "bounds.grouping", None),
        (qb.group_deterministic_max, "bounds.grouping", None),
        (qb.optimize_phases, "optimize.search", None),
        (qb.optimize_with_restarts, "optimize.search", None),
        (cli.run, "cli", None),
    ]
    try:
        for func, name, annotate in functions:
            tracer.patch_function(func, name, annotate)
        tracer.patch_method(qb.DensityMatrix, "__init__", "quantum.state_build")
        tracer.patch_method(
            qb.JointProbabilityTable, "from_json_dict", "scenario.table_load", table_entries
        )
        tracer.patch_method(qb.JointProbabilityTable, "to_json_dict", "scenario.table_dump")
    except BaseException:
        tracer.uninstall()
        raise
