"""Optimal measurement angles, closed-form maxima, and phase search.

The maximal GHZ violation has a closed form: the two-party value scales by
2^(N-2), the violation ratio against the 2^(N-1) bound fixes the critical
visibility, and a linear phase ramp attains it.  An exact coordinate search
confirms the optimum numerically and probes asymmetric settings: along each
phase the value is a trigonometric polynomial, whose coefficients are read off
the branch-pair factors that ghz_bell_value multiplies.  A sweep yields each
phase as a finished move, its peak and the rise to it read off that
polynomial: -arg of its one coefficient for a free phase, the best eigenvalue
of one 2N x 2N companion matrix for a shared one.  So the search only keeps
or drops moves, and evaluates the objective at the start and at the end
(and, from a start at an optimum, for each move its rounding cannot sign).
What a sweep reads besides the phases is built once per search: the weights
times 2 C(N, t) 2^-N, the exponent matrix, the index sets, the ramps and the
companion matrix, whose first row alone is rewritten.  Tolerances scale with
the value, as 2^(N-2).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quantum import (
    PhaseConfiguration,
    _binomials,
    _branch_factors,
    _ghz_weights,
    ghz_bell_value,
)
from .scenario import BellScenario, _is_int

SVETLICHNY_VISIBILITY = 1.0 / math.sqrt(2.0)

# a coordinate sweep that gains less than this times 2^(N-2) ends the phase search
_SWEEP_TOL = 1e-9
# a read-off gain within this times 2^(N-2) of zero is rounding: its sign says nothing
_GAIN_TOL = 1e-13

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
    pair = [m1 * ramp, m2 * ramp]
    return PhaseConfiguration(scenario, np.tile(pair, (scenario.n_parties, 1, 1)))


def cglmp_max_closed_form(dimension: int) -> float:
    """Two-qudit GHZ value under the multiport measurements at the optimal ramps.

    4d * sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) (q_k - q_{-(k+1)}) with
    q_c = 1/(2 d^3 sin^2(pi (c + 1/4)/d)).  Strictly increasing in d; the
    d=2 value is 2*sqrt(2).  For d >= 3 it is not the maximal quantum value
    of the functional: a state that is not maximally entangled does better
    (2.914854 against 2.872934 at d=3; Acin, Durt, Gisin & Latorre,
    PRA 65, 052325 (2002)).
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
    """GHZ value at optimal_angles for N >= 2 qudits: 2^(N-2) times the two-qudit one.

    It is the phase search's ceiling; for d >= 3 it is the GHZ state's value
    under these measurements, not the maximal quantum value (see
    cglmp_max_closed_form).  Raises ValueError for N < 2, where that product
    is not the maximum, and OverflowError where it leaves the float range
    (N > 1024).
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


def critical_visibility(scenario: BellScenario) -> ViolationReport:
    """The maximal violation's report: its ratio and noise thresholds."""
    return ViolationReport(scenario, max_violation(scenario))


def _peak(a: np.ndarray, x0: float, up: np.ndarray, down: np.ndarray, buffers=None):
    """(theta, rise): the angle maximizing Re sum_m a[m-1] e^(i m theta) and the rise to it.

    None where the polynomial is flat.  The rise is Re sum_m a[m-1]
    (e^(i m theta) - e^(i m x0)), the move from x0 to theta over 2^N.  The
    stationary points are the roots of e^(iM theta) times the derivative, a
    degree-2M polynomial in e^(i theta), and the best of them is taken.  They
    are numpy.roots' bit for bit, from its companion matrix with the M - K
    zero terms cut off each end (a_K the top nonzero term) and the low end's
    put back as zero roots.  up and down are the ramps i(1..M) and -i(1..M).
    buffers, a (2M+1)-term polynomial whose middle term stays 0 and a 2M x 2M
    companion matrix whose sub-diagonal of ones stays set, are written in
    place: only the outer terms and the first row change.
    A trimmed polynomial, or a call without buffers, builds its own.
    """
    if a[-1]:
        size = a.size
    elif a.any():
        size = np.flatnonzero(a)[-1] + 1
        buffers = None
    else:
        return None
    poly, companion = buffers or (
        np.zeros(2 * size + 1, dtype=complex),
        np.eye(2 * size, k=-1, dtype=complex),
    )
    # u^(K+k) carries i k a_k and u^(K-k) carries -i k conj(a_k); highest power first
    poly[:size] = (up[:size] * a[:size])[::-1]
    poly[size + 1 :] = down[:size] * a[:size].conj()
    companion[0] = -poly[1:] / poly[0]
    roots = np.angle(np.linalg.eigvals(companion))
    if size < a.size:
        roots = np.concatenate([roots, np.zeros(a.size - size)])
    theta = roots[(np.exp(roots[:, None] * up) @ a).real.argmax()]
    return theta, ((np.exp(theta * up) - np.exp(x0 * up)) @ a).real


def _others(d: int) -> list[np.ndarray]:
    """The indices k != j for each phase j of a setting the search moves (see optimize_phases)."""
    return [np.flatnonzero(np.arange(d) != j) for j in range(1 if d == 2 else d)]


def _free_sweep(weights: np.ndarray, phases: np.ndarray):
    """A sweep: a generator function yielding (coordinate, peak, rise) party by party.

    phases is the search's (N, 2, d) array, read again as the caller moves
    it between yields.  The value is 2^N Re sum_t <W[t], by_t>, and by_t
    is affine in party p's halved factors: the value is
    2^N Re sum (G_1 f_p1 + G_2 f_p2) entrywise, where G_s contracts W with the
    leave-one-out product of the other parties.  That product is a prefix
    (parties before p, already moved this sweep) times a suffix (the parties
    after p), and the suffix is folded into W backwards once per sweep:
    rest[p][a] = sum_b W[a + b] suffix[b].  G is Hermitian like every factor,
    so along phi_psj the value is const + 2^N Re(a e^(i phi)) with
    a = sum_{k != j} G_s[j, k] e^(-i phi_psk).  It peaks at -arg a, and a
    coordinate with a = 0 is flat and yields nothing.  O(N d^2) per party.
    """
    d = phases.shape[2]
    others = _others(d)

    def sweep():
        rest = [weights]
        for f1, f2 in _branch_factors(phases[:0:-1]):
            rest.append(f1 * rest[-1][:-1] + f2 * rest[-1][1:])
        rest.reverse()
        prefix = np.ones((1, d, d), dtype=complex)
        for p, r in enumerate(rest):
            gradient = (np.sum(prefix * r[:-1], axis=0), np.sum(prefix * r[1:], axis=0))
            for s, g in enumerate(gradient):
                for j, k in enumerate(others):
                    a = g[j, k] @ np.exp(-1j * phases[p, s, k])
                    if a:
                        theta = -np.angle(a)
                        rise = a * (cmath.exp(1j * theta) - cmath.exp(1j * phases[p, s, j]))
                        yield (2 * p + s) * d + j, theta, rise.real
            if p + 1 < len(rest):  # the last party's prefix is never read
                f1, f2 = _branch_factors(phases[p])
                moved = np.empty((p + 2, d, d), dtype=complex)
                moved[:-1] = prefix * f1
                moved[1:-1] += prefix[:-1] * f2
                moved[-1] = prefix[-1] * f2
                prefix = moved

    return sweep


def _symmetric_sweep(weights: np.ndarray, phases: np.ndarray):
    """A sweep: a generator function yielding (coordinate, peak, rise) for each shared phase.

    phases is the search's (2, d) array.  With every party alike the
    product is binomial, by_t = C(N, t) 2^-N f_1^(N-t) f_2^t entrywise, so
    phi_sj enters the pair (j, k) as e^(i e phi) with e = N - t (setting 1) or
    t (setting 2), and the pair (k, j) as its conjugate.  So the value is
    const + 2^N Re sum_m a_m e^(i m phi), where a_m sums
    2 W[t, j, k] by_t[j, k] (phi_sj set to 0) over k != j and the t with
    e = m, and _peak solves it.  O(N d) per phase; the exponents, the weights
    times 2 C(N, t) 2^-N, the ramps and _peak's buffers are built once.
    """
    n, d = weights.shape[0] - 1, phases.shape[1]
    t = np.arange(n + 1)
    powers = np.stack([n - t, t], axis=1)  # (N+1, 2): exponent of each setting's factor
    others = _others(d)
    scaled = 2.0 * _binomials(n)[:, None, None] * weights
    pair_weights = [scaled[:, j, k] for j, k in enumerate(others)]
    ramp = np.arange(1, n + 1)
    up, down = 1j * ramp, -1j * ramp
    buffers = np.zeros(2 * n + 1, dtype=complex), np.eye(2 * n, k=-1, dtype=complex)

    def sweep():
        for s in (0, 1):
            for j, (k, w) in enumerate(zip(others, pair_weights)):
                row = phases[:, j, None] - phases[:, k]  # phi_j - phi_k, k != j
                row[s] = -phases[s, k]
                by_power = (w * np.exp(1j * (powers @ row))).sum(axis=1)
                a = by_power[-2::-1] if s == 0 else by_power[1:]
                move = _peak(a, phases[s, j], up, down, buffers)
                if move is not None:
                    yield s * d + j, *move

    return sweep


def optimize_phases(
    scenario: BellScenario,
    start: PhaseConfiguration,
    budget: int,
    mode: str = "free",
) -> tuple[PhaseConfiguration, float]:
    """Exact coordinate ascent for phases maximizing the GHZ Bell value.

    Cycles through the phase entries (all 2*N*d in "free" mode, the 2*d
    party-shared ones in "symmetric" mode), moving each to the exact maximum
    along it.  Adding a constant to a setting's d phases changes no factor
    e^(i(phi_j - phi_k)), so at d = 2 moving phi_1 by t moves phi_0 by -t,
    along a line the move of phi_0 has just maximized: only phi_0 moves there.
    (For d >= 3 the last phase is a joint move of the others.)  A phase
    multiplies one GHZ branch by e^(i phi) in one party (free, degree 1) or in
    all N parties (symmetric, degree N); the trigonometric polynomial along it
    is read off the branch-pair factors of ghz_bell_value, not sampled, and a
    sweep yields each coordinate's move: its peak theta and its rise
    Re sum_m a_m (e^(i m theta) - e^(i m x0)), the gain over 2^N.  A move
    gaining more than 1e-13 * 2^(N-2) is kept and one losing more is dropped.
    In between the sign is rounding.
    While no move has been kept on its gain alone, the running value is the
    objective itself, so one evaluation decides such a move, kept if the
    value does not drop (a start at an optimum moves by these alone); after
    that the running value carries the same rounding, and the move is
    dropped.  A peak equal to the current phase moves nothing.  The budget
    counts the start and every move yielded (a flat coordinate yields none),
    and the search stops as soon as it is spent, before the sweep reads
    another coordinate.  Sweeps repeat until the
    kept gains of a full cycle sum to less than 1e-9 * 2^(N-2) or the budget
    is spent.  The objective is evaluated at the start and, if a move was
    kept on its gain alone, at the end: the returned value is the objective
    at the returned phases, and if the end reads below the start the start's
    phases and value are returned.  A returned value past the closed form by
    1e-6 * 2^(N-2) warns: the tolerances scale with the value.  Symmetric
    mode reads the start's party-1 vectors as the shared parameters and
    writes each move into every party's block of one (N, 2, d) array, so the
    blocks stay equal byte for byte.  Like max_violation, the
    search's ceiling, it refuses N < 2 with ValueError before any sweep, as it
    does a start from another scenario and a budget that is not a positive
    int (a bool included).
    """
    if not _is_int(budget) or budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget!r}")
    if mode not in ("free", "symmetric"):
        raise ValueError(f"mode must be 'free' or 'symmetric', got {mode!r}")
    if start.scenario != scenario:
        raise ValueError(f"start is for {start.scenario}, the search is for {scenario}")
    n = scenario.n_parties
    ceiling = max_violation(scenario)
    scale = math.ldexp(1.0, n - 2)  # absolute tolerances would fall below an ulp at N ~ 30

    free = mode == "free"
    # symmetric mode: party 1's vectors parameterize all parties, and stay equal in every block
    phases = start.phases.copy() if free else np.tile(start.phases[0], (n, 1, 1))
    columns = phases.reshape(1 if free else n, -1)  # a view: coordinate c is column c
    weights = _ghz_weights(n, scenario.dimension)
    sweep = _free_sweep(weights, phases) if free else _symmetric_sweep(weights, phases[0])
    start_value = ghz_bell_value(PhaseConfiguration(scenario, phases))
    best, used = start_value, 1
    exact = True  # best is the objective at the current phases, not a sum of read-off gains
    improved = True
    while improved and used < budget:
        sweep_start = best
        for coord, theta, rise in sweep():
            used += 1
            x0 = columns[0, coord]
            if theta != x0:
                gain = math.ldexp(rise, n)
                if gain > _GAIN_TOL * scale:
                    columns[:, coord] = theta
                    best += gain
                    exact = False
                elif exact and gain >= -_GAIN_TOL * scale:
                    # the gain's sign is rounding, and best is the objective here: one
                    # evaluation decides.  Past a kept gain best carries the same rounding,
                    # so the move is dropped: the phase is already within rounding of its peak.
                    columns[:, coord] = theta
                    value = ghz_bell_value(PhaseConfiguration(scenario, phases))
                    if value >= best:
                        best = value
                    else:
                        columns[:, coord] = x0
            if used == budget:
                break
        improved = best - sweep_start > _SWEEP_TOL * scale

    value = best
    if not exact:
        value = ghz_bell_value(PhaseConfiguration(scenario, phases))
        if value < start_value:  # rounding near an optimum: the start stands
            phases[:] = start.phases if free else start.phases[0]
            value = start_value
    if value > ceiling + 1e-6 * scale:
        warnings.warn(
            f"phase search exceeded the closed-form maximum: {value!r} > {ceiling!r}",
            stacklevel=2,
        )
    return PhaseConfiguration(scenario, phases), value


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

    Each restart sweeps until a full cycle gains less than 1e-9 * 2^(N-2) or its
    budget of moves (the start counts as one) is spent.  Restarts are
    independent; ties go to the earliest restart, so the result is a
    deterministic function of the seed.
    """
    if not _is_int(restarts) or restarts < 1:
        raise ValueError(f"restarts must be a positive integer, got {restarts!r}")
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
