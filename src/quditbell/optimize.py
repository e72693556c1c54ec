"""Optimal measurement angles, closed-form maxima, and phase search.

The maximal GHZ violation has a closed form: the two-party value scales by
2^(N-2), the violation ratio against the 2^(N-1) bound fixes the critical
visibility, and a linear phase ramp attains it.  An exact coordinate search
confirms the optimum numerically and probes asymmetric settings: along each
phase the value is a trigonometric polynomial, whose coefficients are read off
the branch-pair factors that ghz_bell_value multiplies, so each move costs one
objective evaluation, the one that confirms it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quantum import PhaseConfiguration, _branch_factors, _ghz_weights, ghz_bell_value
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
    """Maximal quantum value for N >= 2 qudits: 2^(N-2) times the two-qudit one.

    Raises ValueError for N < 2, where that product is not the maximum, and
    OverflowError where it leaves the float range (N > 1024).
    """
    if scenario.n_parties < 2:
        raise ValueError(f"need at least 2 parties, got {scenario.n_parties}")
    return math.ldexp(cglmp_max_closed_form(scenario.dimension), scenario.n_parties - 2)


@dataclass(frozen=True)
class ViolationReport:
    """Maximal violation, and what it implies against the 2^(N-1) bound.

    The Bell value is affine in the visibility, so the crossover with the
    bound sits at the reciprocal of the violation ratio; the ratio itself is
    half the two-qudit maximum, independent of N.
    """

    scenario: BellScenario
    max_value: float

    @property
    def ratio(self) -> float:
        return self.max_value / 2.0 ** (self.scenario.n_parties - 1)

    @property
    def critical_visibility(self) -> float:
        return 1.0 / self.ratio

    @property
    def beats_svetlichny(self) -> bool:
        """True when the noise threshold lies strictly below 1/sqrt(2)."""
        return self.critical_visibility < SVETLICHNY_VISIBILITY

    def to_json_dict(self) -> dict:
        return {
            "n": self.scenario.n_parties,
            "d": self.scenario.dimension,
            "max_value": self.max_value,
            "ratio": self.ratio,
            "critical_visibility": self.critical_visibility,
            "svetlichny_visibility": SVETLICHNY_VISIBILITY,
            "beats_svetlichny": self.beats_svetlichny,
            "angles_mode": "optimal",
            "angles": optimal_angles(self.scenario).to_json_dict(),
        }


def critical_visibility(scenario: BellScenario) -> ViolationReport:
    """The maximal violation's report: its ratio and noise thresholds."""
    return ViolationReport(scenario, max_violation(scenario))


def _peak(a: np.ndarray):
    """Angle maximizing Re sum_m a[m-1] e^(i m theta), or None where that is flat.

    Degree 1 peaks at -arg a_1.  Otherwise the stationary points are the roots
    of e^(iM theta) times the derivative, a degree-2M polynomial in
    e^(i theta), and the best of them is taken.
    """
    if not a.any():
        return None
    if a.size == 1:
        return -np.angle(a[0])
    m = np.arange(1, a.size + 1)
    # u^(M+m) carries i m a_m and u^(M-m) carries -i m conj(a_m); highest power first
    roots = np.angle(np.roots(np.concatenate([(1j * m * a)[::-1], [0.0], -1j * m * a.conj()])))
    return roots[np.argmax((np.exp(1j * np.outer(roots, m)) @ a).real)]


def _free_sweep(weights: np.ndarray, phases: np.ndarray):
    """Yield (coordinate, a) for every phase in turn, party by party.

    phases is the search's (N, 2, d) array, read again as the caller moves
    it between yields.  The value is 2^N Re sum_t <W[t], by_t>, and by_t
    is affine in party p's halved factors: the value is
    2^N Re sum (G_1 f_p1 + G_2 f_p2) entrywise, where G_s contracts W with the
    leave-one-out product of the other parties.  That product is a prefix
    (parties before p, already moved this sweep) times a suffix (the parties
    after p), and the suffix is folded into W backwards once per sweep:
    rest[p][a] = sum_b W[a + b] suffix[b].  G is Hermitian like every factor,
    so along phi_psj the value is const + 2^N Re(a e^(i phi)) with
    a = sum_{k != j} G_s[j, k] e^(-i phi_psk).  O(N d^2) per party.
    """
    d = phases.shape[2]
    rest = [weights]
    for f1, f2 in _branch_factors(phases[:0:-1]):
        rest.append(f1 * rest[-1][:-1] + f2 * rest[-1][1:])
    rest.reverse()
    prefix = np.ones((1, d, d), dtype=complex)
    off = ~np.eye(d, dtype=bool)
    for p, r in enumerate(rest):
        gradient = (np.sum(prefix * r[:-1], axis=0), np.sum(prefix * r[1:], axis=0))
        for s, g in enumerate(gradient):
            for j in range(d):
                a = g[j, off[j]] @ np.exp(-1j * phases[p, s, off[j]])
                yield (2 * p + s) * d + j, np.array([a])
        f1, f2 = _branch_factors(phases[p])
        moved = np.zeros((p + 2, d, d), dtype=complex)
        moved[:-1] = prefix * f1
        moved[1:] += prefix * f2
        prefix = moved


def _symmetric_sweep(weights: np.ndarray, phases: np.ndarray):
    """Yield (coordinate, a) for each of the 2d shared phases in turn.

    phases is the search's (2, d) array.  With every party alike the
    product is binomial, by_t = C(N, t) 2^-N f_1^(N-t) f_2^t entrywise, so
    phi_sj enters the pair (j, k) as e^(i e phi) with e = N - t (setting 1) or
    t (setting 2), and the pair (k, j) as its conjugate.  So the value is
    const + 2^N Re sum_m a_m e^(i m phi), where a_m sums
    2 W[t, j, k] by_t[j, k] (phi_sj set to 0) over k != j and the t with
    e = m.  O(N d) per phase.
    """
    n, d = weights.shape[0] - 1, phases.shape[1]
    t = np.arange(n + 1)
    binom = np.array([math.comb(n, k) / 2**n for k in t])
    powers = np.stack([n - t, t], axis=1)  # (N+1, 2): exponent of each setting's factor
    off = ~np.eye(d, dtype=bool)
    for s in (0, 1):
        for j in range(d):
            row = phases[:, j, None] - phases[:, off[j]]  # phi_j - phi_k, k != j
            row[s] = -phases[s, off[j]]
            terms = binom[:, None] * np.exp(1j * (powers @ row))
            by_power = 2.0 * np.sum(weights[:, j, off[j]] * terms, axis=1)
            yield s * d + j, by_power[-2::-1] if s == 0 else by_power[1:]


def optimize_phases(
    scenario: BellScenario,
    start: PhaseConfiguration,
    budget: int,
    mode: str = "free",
) -> tuple[PhaseConfiguration, float]:
    """Exact coordinate ascent for phases maximizing the GHZ Bell value.

    Cycles through the phase entries (all 2*N*d in "free" mode, the 2*d
    party-shared ones in "symmetric" mode), moving each to the exact maximum
    along it.  A phase multiplies one GHZ branch by e^(i phi) in one party
    (free, degree 1) or in all N parties (symmetric, degree N); the
    trigonometric polynomial along it is read off the branch-pair factors of
    ghz_bell_value, not sampled, and one objective evaluation confirms each
    move, which is kept only if the value does not drop.  The budget counts
    evaluations, the start's included, and is checked before each move.
    Sweeps repeat until a full cycle improves by less than 1e-9 or the
    budget is spent.  The returned value is the objective at the returned
    phases and never drops below the start's; symmetric mode reads the
    start's party-1 vectors as the shared parameters.  Like max_violation,
    the search's ceiling, it refuses N < 2 with ValueError before any sweep.
    """
    if budget <= 0:
        raise ValueError(f"evaluation budget must be positive, got {budget}")
    if mode not in ("free", "symmetric"):
        raise ValueError(f"mode must be 'free' or 'symmetric', got {mode!r}")
    n, d = scenario.n_parties, scenario.dimension
    ceiling = max_violation(scenario)

    free = mode == "free"
    # symmetric mode: party 1's vectors parameterize all parties
    phases = (start.phases if free else start.phases[0]).copy()
    flat = phases.reshape(-1)  # a view: coordinate c is flat[c]

    def build():
        return PhaseConfiguration(scenario, phases if free else np.tile(phases, (n, 1, 1)))

    sweep = _free_sweep if free else _symmetric_sweep
    weights = _ghz_weights(n, d)
    best = ghz_bell_value(build())
    used = 1
    improved = True
    while improved and used < budget:
        sweep_start = best
        for coord, a in sweep(weights, phases):
            theta = _peak(a)
            if theta is None:
                continue
            if used == budget:
                break
            x0 = flat[coord]
            flat[coord] = theta
            value = ghz_bell_value(build())
            used += 1
            if value >= best:
                best = value
            else:
                flat[coord] = x0
        improved = best - sweep_start > _SWEEP_TOL

    if best > ceiling + 1e-6:
        warnings.warn(
            f"phase search exceeded the closed-form maximum: {best!r} > {ceiling!r}",
            stacklevel=2,
        )
    return build(), best


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
