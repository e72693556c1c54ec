"""Optimal measurement angles, closed-form maxima, and phase search.

The maximal GHZ violation has a closed form: the two-party value scales by
2^(N-2), the violation ratio against the 2^(N-1) bound fixes the critical
visibility, and a linear phase ramp attains it.  An exact coordinate search
(Rotosolve/NFT: the value is a trigonometric polynomial along each phase)
confirms the optimum numerically and probes asymmetric settings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quantum import PhaseConfiguration, ghz_bell_value
from .scenario import BellScenario

SVETLICHNY_VISIBILITY = 1.0 / math.sqrt(2.0)

# a coordinate sweep that gains less than this ends the phase search
_SWEEP_TOL = 1e-9

__all__ = [
    "SVETLICHNY_VISIBILITY",
    "PhaseSearchResult",
    "ViolationReport",
    "cglmp_max_closed_form",
    "critical_visibility",
    "max_violation",
    "optimal_angles",
    "optimize_phases",
    "optimize_with_restarts",
]


def optimal_angles(scenario: BellScenario) -> PhaseConfiguration:
    """Linear phase ramps attaining the maximal GHZ violation.

    Every party uses the same two vectors: entry l is l*m*pi/(2d) with slope
    m1 = 15/N for the first setting and m2 = m1 - 6 for the second.
    """
    d = scenario.dimension
    m1 = 15.0 / scenario.n_parties
    m2 = m1 - 6.0
    ramp = np.arange(d) * math.pi / (2.0 * d)
    return PhaseConfiguration.from_party_vectors(scenario, m1 * ramp, m2 * ramp)


def cglmp_max_closed_form(dimension: int) -> float:
    """Maximal quantum value of the two-qudit functional.

    4d * sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) (q_k - q_{-(k+1)}) with
    q_c = 1/(2 d^3 sin^2(pi (c + 1/4)/d)).  Strictly increasing in d; the
    d=2 value is 2*sqrt(2).
    """
    if dimension < 2:
        raise ValueError(f"need outcome dimension >= 2, got {dimension}")
    d = dimension

    def q(c):
        return 1.0 / (2.0 * d**3 * math.sin(math.pi * (c + 0.25) / d) ** 2)

    total = sum(
        (1.0 - 2.0 * k / (d - 1)) * (q(k) - q(-(k + 1))) for k in range(d // 2)
    )
    return 4.0 * d * total


def max_violation(scenario: BellScenario) -> float:
    """Maximal quantum value for N qudits: 2^(N-2) times the two-qudit one.

    Raises OverflowError where that value leaves the float range (N > 1024).
    """
    return math.ldexp(cglmp_max_closed_form(scenario.dimension), scenario.n_parties - 2)


@dataclass(frozen=True)
class ViolationReport:
    """Maximal violation, its ratio against the 2^(N-1) bound, and thresholds."""

    scenario: BellScenario
    max_value: float
    angles: PhaseConfiguration
    ratio: float
    critical_visibility: float
    svetlichny_visibility: float
    angles_mode: str = "optimal"

    @property
    def beats_svetlichny(self) -> bool:
        """True when the noise threshold lies strictly below 1/sqrt(2)."""
        return self.critical_visibility < self.svetlichny_visibility

    def to_json_dict(self) -> dict:
        return {
            "n": self.scenario.n_parties,
            "d": self.scenario.dimension,
            "max_value": self.max_value,
            "ratio": self.ratio,
            "critical_visibility": self.critical_visibility,
            "svetlichny_visibility": self.svetlichny_visibility,
            "beats_svetlichny": self.beats_svetlichny,
            "angles_mode": self.angles_mode,
            "angles": self.angles.to_json_dict(),
        }


def critical_visibility(scenario: BellScenario) -> ViolationReport:
    """Noise threshold above which the white-noise GHZ mixture still violates.

    The Bell value is affine in the visibility, so the crossover with the
    2^(N-1) bound sits at the reciprocal of the violation ratio; the ratio
    itself is half the two-qudit maximum, independent of N.
    """
    value = max_violation(scenario)
    ratio = value / 2.0 ** (scenario.n_parties - 1)
    return ViolationReport(
        scenario=scenario,
        max_value=value,
        angles=optimal_angles(scenario),
        ratio=ratio,
        critical_visibility=1.0 / ratio,
        svetlichny_visibility=SVETLICHNY_VISIBILITY,
    )


class _BudgetExhausted(Exception):
    pass


class _CountedObjective:
    """Objective wrapper that stops the search when evaluations run out."""

    def __init__(self, func, budget: int):
        self.func = func
        self.remaining = budget
        self.used = 0

    def __call__(self, x):
        if self.remaining <= 0:
            raise _BudgetExhausted
        self.remaining -= 1
        self.used += 1
        return self.func(x)


def _trig_step(f, params, coord, f0, degree):
    """Maximize f along one coordinate in place; returns the new best value.

    Along the coordinate f is a trigonometric polynomial of degree m, fixed
    by 2m+1 equispaced samples (f0 is the first).  Its stationary points are
    the roots of e^(imt) f'(t), a degree-2m polynomial in e^(it); f is
    evaluated once more at the best of them and the best evaluated point kept.
    """
    x0, size = params[coord], 2 * degree + 1
    offsets = 2.0 * np.pi * np.arange(size) / size
    samples = [f0]
    for t in offsets[1:]:
        params[coord] = x0 + t
        samples.append(f(params))
    # DFT of the samples: c[k + m] is the coefficient of e^(ikt), k = -m..m
    k = np.arange(-degree, degree + 1)
    c = np.exp(-1j * np.outer(k, offsets)) @ samples / size
    best = int(np.argmax(samples))
    best_t, best_f = offsets[best], samples[best]
    roots = np.angle(np.roots((1j * k * c)[::-1]))
    if roots.size:
        t = roots[np.argmax((np.exp(1j * np.outer(roots, k)) @ c).real)]
        params[coord] = x0 + t
        ft = f(params)
        if ft > best_f:
            best_t, best_f = t, ft
    params[coord] = x0 + best_t
    return best_f


def optimize_phases(
    scenario: BellScenario,
    start: PhaseConfiguration,
    budget: int,
    mode: str = "free",
) -> tuple[PhaseConfiguration, float]:
    """Exact coordinate ascent for phases maximizing the GHZ Bell value.

    Cycles through the phase entries (all 2*N*d in "free" mode, the 2*d
    party-shared ones in "symmetric" mode), moving each to the exact maximum
    along it: a phase multiplies one GHZ branch by e^(i phi) in one party
    (free, degree 1, 3 evaluations) or up to N parties (symmetric, degree N,
    2N+1 evaluations).  Sweeps repeat until a full cycle improves by less
    than 1e-9 or the evaluation budget is spent.  The returned value never
    drops below the start's; symmetric mode reads the start's party-1
    vectors as the shared parameters.
    """
    if budget <= 0:
        raise ValueError(f"evaluation budget must be positive, got {budget}")
    if mode not in ("free", "symmetric"):
        raise ValueError(f"mode must be 'free' or 'symmetric', got {mode!r}")
    n, d = scenario.n_parties, scenario.dimension

    if mode == "free":
        params, degree = start.phases.copy().reshape(-1), 1

        def build(p):
            return PhaseConfiguration(scenario, p.reshape(n, 2, d))

    else:
        # party 1's vectors parameterize all parties
        params, degree = start.phases[0].copy().reshape(-1), n

        def build(p):
            return PhaseConfiguration(scenario, np.tile(p.reshape(2, d), (n, 1, 1)))

    objective = _CountedObjective(lambda p: ghz_bell_value(build(p)), budget)

    best = objective(params)
    best_params = params.copy()
    try:
        improved = True
        while improved:
            sweep_start = best
            for coord in range(params.size):
                best = _trig_step(objective, params, coord, best, degree)
                best_params[coord] = params[coord]
            improved = best - sweep_start > _SWEEP_TOL
    except _BudgetExhausted:
        # a probe value may still sit in the interrupted coordinate
        params[:] = best_params

    ceiling = max_violation(scenario)
    if best > ceiling + 1e-6:
        warnings.warn(
            f"phase search exceeded the closed-form maximum: {best!r} > {ceiling!r}",
            stacklevel=2,
        )
    return build(params), best


@dataclass(frozen=True)
class PhaseSearchResult:
    config: PhaseConfiguration
    value: float
    restart_values: tuple[float, ...]


def optimize_with_restarts(
    scenario: BellScenario,
    restarts: int = 20,
    budget: int = 20_000,
    mode: str = "free",
    seed: int = 0,
) -> PhaseSearchResult:
    """Run optimize_phases from uniformly random starts and keep the best.

    Each restart sweeps until a full cycle gains less than 1e-9 or its
    evaluation budget is spent.  Restarts are independent; ties go to the
    earliest restart, so the result is a deterministic function of the seed.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    rng = np.random.default_rng(seed)
    n, d = scenario.n_parties, scenario.dimension
    best_config, best_value = None, -math.inf
    values = []
    for _ in range(restarts):
        start = PhaseConfiguration(scenario, rng.uniform(0.0, 2.0 * math.pi, (n, 2, d)))
        config, value = optimize_phases(scenario, start, budget, mode=mode)
        values.append(value)
        if value > best_value:
            best_config, best_value = config, value
    return PhaseSearchResult(best_config, best_value, tuple(values))
