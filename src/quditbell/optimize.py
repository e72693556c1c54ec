"""Optimal measurement angles, closed-form maxima, and phase search.

The maximal GHZ violation has a closed form: the two-party value scales by
2^(N-2), the violation ratio against the 2^(N-1) bound fixes the critical
visibility, and a linear phase ramp attains it.  An exact coordinate search
confirms the optimum numerically and probes asymmetric settings: along each
phase the value is a trigonometric polynomial, whose coefficients are read off
the branch-pair factors that ghz_bell_value multiplies.  A sweep yields each
phase as a finished move, its peak and the rise to it read off that
polynomial: -arg of its one coefficient for a free phase, the best eigenvalue
of one 2N x 2N companion matrix for a shared one.  optimize_phases states the
search's rules.
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
    _times_party,
    ghz_bell_value,
)
from .scenario import BellScenario, _brief, _count

SVETLICHNY_VISIBILITY = 1.0 / math.sqrt(2.0)

# a coordinate sweep that gains less than this times 2^(N-2) ends the phase search
_SWEEP_TOL = 1e-9
# a read-off gain within this times 2^(N-2) of zero is rounding: its sign says nothing
_GAIN_TOL = 1e-13
# restarts climb in stacks of at most this many entries, (N+1)^2 d^2 per restart: 8 at
# N = 30, d = 8, where 8 stacked free restarts ran 2.3x faster than 8 single ones on a
# 2-core VM, and one at N = d = 30, where a second would add 7.5 MB of peak RSS
_STACK_ENTRIES = 2**19

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
    q_c = 1/(2 d^3 sin^2(pi (c + 1/4)/d)): one numpy expression for the d/2
    terms, and math.fsum sums them exactly rounded, within 1e-15 relative of
    a 40-digit sum.  Strictly increasing in d; the d=2 value is 2*sqrt(2).
    For d >= 3 it is not the maximal quantum value of the functional: a state
    that is not maximally entangled does better (2.914854 against 2.872934 at
    d=3; Acin, Durt, Gisin & Latorre, PRA 65, 052325 (2002)).
    """
    d = _count(dimension, "dimension", 2)
    k = np.arange(d // 2)

    def q(c):
        return 1.0 / (2.0 * d**3 * np.sin(np.pi * (c + 0.25) / d) ** 2)

    return 4.0 * d * math.fsum((1.0 - 2.0 * k / (d - 1)) * (q(k) - q(-(k + 1))))


def max_violation(scenario: BellScenario) -> float:
    """GHZ value at optimal_angles for N >= 2 qudits: 2^(N-2) times the two-qudit one.

    It is the phase search's ceiling; for d >= 3 it is the GHZ state's value
    under these measurements, not the maximal quantum value (see
    cglmp_max_closed_form).  Raises ValueError for N < 2, where that product
    is not the maximum, and OverflowError where it leaves the float range
    (N > 1024).
    """
    n = _count(scenario.n_parties, "n_parties", 2)
    return math.ldexp(cglmp_max_closed_form(scenario.dimension), n - 2)


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


def _peak(a: np.ndarray, x0: float, up: np.ndarray, down: np.ndarray, buffers):
    """(theta, rise): the angle maximizing Re sum_m a[m-1] e^(i m theta) and the rise to it.

    None where the polynomial is flat.  The rise is Re sum_m a[m-1]
    (e^(i m theta) - e^(i m x0)), the move from x0 to theta over 2^N.  The
    stationary points are the roots of e^(iM theta) times the derivative, a
    degree-2M polynomial in e^(i theta), and the best of them is taken.  They
    are numpy.roots' bit for bit, from its companion matrix; a polynomial
    whose top term is 0, which that matrix would divide by, goes to
    numpy.roots itself.  up and down are the ramps i(1..M) and -i(1..M).
    buffers, a (2M+1)-term polynomial whose middle term stays 0 and a 2M x 2M
    companion matrix whose sub-diagonal of ones stays set, are written in
    place: only the outer terms and the first row change, so one pair serves
    every row and phase of a search.
    """
    poly, companion = buffers
    # u^(M+m) carries i m a_m and u^(M-m) carries -i m conj(a_m); highest power first
    poly[: a.size] = (up * a)[::-1]
    poly[a.size + 1 :] = down * a.conj()
    if a[-1]:
        companion[0] = -poly[1:] / poly[0]
        roots = np.angle(np.linalg.eigvals(companion))
    elif a.any():
        roots = np.angle(np.roots(poly))
    else:
        return None
    theta = roots[(np.exp(roots[:, None] * up) @ a).real.argmax()]
    return theta, ((np.exp(theta * up) - np.exp(x0 * up)) @ a).real


def _others(d: int) -> np.ndarray:
    """The indices k != j, ascending, in row j for each phase j a setting's search moves.

    See optimize_phases: at d = 2 only phase 0 moves.
    """
    return np.array([[k for k in range(d) if k != j] for j in range(1 if d == 2 else d)])


def _free_sweep(weights: np.ndarray):
    """A sweep: a generator function of a stack, yielding (coordinate, moves) party by party.

    The stack is the climb's (R, N, 2, d) phases, read again as the caller
    moves them between yields, and moves lists (row, x0, peak, rise) for
    each row whose coordinate is not flat, x0 being the phase's current
    value.  For one row the value is 2^N Re sum_t <W[t], by_t>, and by_t is
    affine in party p's halved factors: the value is
    2^N Re sum (G_1 f_p1 + G_2 f_p2) entrywise, where
    G_s contracts W with the leave-one-out product of the other parties.
    That product is a prefix (parties before p, already moved this sweep)
    times a suffix (the parties after p), and the suffix is folded into W
    backwards once per sweep: rest[p][a] = sum_b W[a + b] suffix[b].  G is
    Hermitian like every factor, so along phi_psj the value is
    const + 2^N Re(a e^(i phi)) with a = sum_{k != j} G_s[j, k] e^(-i phi_psk).
    It peaks at -arg a, and a coordinate with a = 0 is flat.  O(N d^2) per
    party and row; every array step runs once for all rows, and only each
    row's rise is a scalar.
    """
    d = weights.shape[1]
    # a is one batched dot per coordinate: for each phase j, the gradient's flat (j, k != j)
    # entries as a (1, d - 1) row and the setting's phases k != j as a (d - 1, 1) column
    reads = [(j, (j * d + k)[None], k[:, None]) for j, k in enumerate(_others(d))]

    def sweep(phases):
        count = len(phases)
        settings = phases.reshape(count, -1, d)  # a view: setting s of party p is row 2p + s
        rest = [weights[:, None]]  # (T, R, d, d): t leads, as _times_party takes it
        for f in _branch_factors(phases[:, :0:-1]).swapaxes(0, 1):  # (R, 2, d, d), party N first
            rest.append(f[:, 0] * rest[-1][:-1] + f[:, 1] * rest[-1][1:])
        rest.reverse()
        by_t = np.empty((len(rest), count, d, d), dtype=complex)
        by_t[0] = 1.0
        for p, r in enumerate(rest):
            prefix = by_t[: p + 1]
            gradient = (prefix * r[:-1]).sum(axis=0), (prefix * r[1:]).sum(axis=0)
            for s, g in enumerate(gradient):
                g = g.reshape(count, d * d)
                setting = settings[:, 2 * p + s]
                for j, pair, cols in reads:
                    a = (g.take(pair, axis=1) @ np.exp(-1j * setting.take(cols, axis=1))).ravel()
                    moves = []
                    for i, (ai, arg, x0) in enumerate(
                        zip(a.tolist(), np.arctan2(a.imag, a.real).tolist(), setting[:, j].tolist())
                    ):
                        if ai:
                            theta = -arg
                            rise = ai * (cmath.exp(1j * theta) - cmath.exp(1j * x0))
                            moves.append((i, x0, theta, rise.real))
                    yield (2 * p + s) * d + j, moves
            if p + 1 < len(rest):  # the last party's prefix is never read
                f = _branch_factors(phases[:, p])
                _times_party(by_t, f[:, 0], f[:, 1], p)

    return sweep


def _symmetric_sweep(weights: np.ndarray):
    """A sweep: a generator function of a stack, yielding (coordinate, moves) for each shared phase.

    The stack is the climb's (R, N, 2, d) phases, whose rows keep every
    party's block equal to party 1's (2, d) one, and moves are as in
    _free_sweep.  The rows' polynomials are built together, and _peak solves
    each row's on its own.  With every party alike the product is binomial,
    by_t = C(N, t) 2^-N f_1^(N-t) f_2^t entrywise, so phi_sj enters the pair
    (j, k) as e^(i e phi) with e = N - t (setting 1) or t (setting 2), and the
    pair (k, j) as its conjugate.  So the value is
    const + 2^N Re sum_m a_m e^(i m phi), where a_m sums
    2 W[t, j, k] by_t[j, k] (phi_sj set to 0) over k != j and the t with
    e = m.  O(N d) per phase and row; the exponents, the weights times
    2 C(N, t) 2^-N, the ramps and _peak's buffers are built once.
    """
    n, d = weights.shape[0] - 1, weights.shape[1]
    t = np.arange(n + 1)
    powers = np.stack([n - t, t], axis=1)  # (N+1, 2): exponent of each setting's factor
    scaled = 2.0 * _binomials(n)[:, None, None] * weights
    reads = [(j, k, scaled[:, j, k]) for j, k in enumerate(_others(d))]
    ramp = np.arange(1, n + 1)
    up, down = 1j * ramp, -1j * ramp
    buffers = np.zeros(2 * n + 1, dtype=complex), np.eye(2 * n, k=-1, dtype=complex)
    # a_m is by_power[N - m] for setting 1 and by_power[m] for setting 2, m = 1..N
    terms = (slice(-2, None, -1), slice(1, None))

    def sweep(phases):
        shared = phases[:, 0]  # (R, 2, d): each row's party-1 block
        for s in (0, 1):
            for j, k, w in reads:
                at_k = shared.take(k, axis=2)
                row = shared[:, :, j, None] - at_k  # phi_j - phi_k, k != j
                row[:, s] = -at_k[:, s]
                by_power = (w * np.exp(1j * (powers @ row))).sum(axis=2)
                moves = []
                for i, x0 in enumerate(shared[:, s, j].tolist()):
                    move = _peak(by_power[i, terms[s]], x0, up, down, buffers)
                    if move is not None:
                        moves.append((i, x0, *move))
                yield s * d + j, moves

    return sweep


def _objective(scenario: BellScenario, phases: np.ndarray) -> float:
    """The GHZ Bell value at one row's (N, 2, d) phases: every evaluation the search makes."""
    return ghz_bell_value(PhaseConfiguration(scenario, phases))


def _check(budget, mode: str) -> None:
    """Refuse a budget that is not a positive int (a bool included) and an unknown mode."""
    _count(budget, "budget", 1)
    if mode not in ("free", "symmetric"):
        raise ValueError(f"mode must be 'free' or 'symmetric', got {_brief(mode)}")


def _climb(
    scenario: BellScenario, starts: np.ndarray, budget: int, mode: str
) -> tuple[np.ndarray, list[float]]:
    """optimize_phases from every (N, 2, d) start of an (R, N, 2, d) stack at once.

    Returns the phases reached, (R, N, 2, d), and their values.  A sweep
    builds a coordinate's polynomials for every row of the stack in one set
    of numpy calls (a shared phase's peak is then solved row by row), and
    each row keeps or drops its own moves by optimize_phases' rules, with its
    own running value, budget and stop rule.  A row whose budget is spent
    takes no further move.  At the end of each sweep the rows that stop get
    their end evaluation and are written back, and the stack keeps the rest.
    A value past the closed form warns at the caller of the public function
    that called this one.
    """
    n = scenario.n_parties
    ceiling = max_violation(scenario)
    scale = math.ldexp(1.0, n - 2)  # absolute tolerances would fall below an ulp at N ~ 30
    tol = _GAIN_TOL * scale
    free = mode == "free"
    weights = _ghz_weights(n, scenario.dimension)
    sweep = _free_sweep(weights) if free else _symmetric_sweep(weights)
    # symmetric mode: party 1's vectors parameterize all parties, and stay equal in every block
    phases = starts.copy() if free else np.repeat(starts[:, :1], n, axis=1)
    values = [_objective(scenario, start) for start in phases]  # a row's start value until it ends
    rows = list(range(len(phases))) if budget > 1 else []  # the stack's rows, by start
    stack = phases  # until a row leaves it
    best = values.copy()
    left = [budget - 1] * len(rows)  # the moves each row may still take
    exact = [True] * len(rows)  # best[i] is the objective at row i, not a sum of read-off gains
    sweep_tol = _SWEEP_TOL * scale
    while rows:
        columns = stack.reshape(len(rows), 1 if free else n, -1)  # coordinate c is columns[i, :, c]
        sweep_start = best.copy()
        for coord, moves in sweep(stack):
            for i, x0, theta, rise in moves:
                if not left[i]:
                    continue
                left[i] -= 1
                if theta != x0:
                    gain = math.ldexp(rise, n)
                    if gain > tol:
                        columns[i, :, coord] = theta
                        best[i] += gain
                        exact[i] = False
                    elif exact[i] and gain >= -tol:
                        # the gain's sign is rounding, and best is the objective here: one
                        # evaluation decides.  Past a kept gain best carries the same rounding,
                        # so the move is dropped: the phase is already within rounding of its peak.
                        columns[i, :, coord] = theta
                        value = _objective(scenario, stack[i])
                        if value >= best[i]:
                            best[i] = value
                        else:
                            columns[i, :, coord] = x0
            if not any(left):
                break  # no row may move: no further coordinate is read
        keep = []
        for i, row in enumerate(rows):
            if left[i] and best[i] - sweep_start[i] > sweep_tol:
                keep.append(i)
                continue
            if not exact[i]:
                best[i] = _objective(scenario, stack[i])
            if best[i] < values[row]:  # rounding near an optimum: the start stands
                stack[i], best[i] = starts[row] if free else starts[row, 0], values[row]
            phases[row], values[row] = stack[i], best[i]
        if len(keep) < len(rows):
            stack = stack[keep]
            rows, best, left, exact = ([x[i] for i in keep] for x in (rows, best, left, exact))
    for value in values:
        if value > ceiling + 1e-6 * scale:
            warnings.warn(
                f"phase search exceeded the closed-form maximum: {value!r} > {ceiling!r}",
                stacklevel=3,
            )
    return phases, values


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
    _check(budget, mode)
    if start.scenario != scenario:
        raise ValueError(f"start is for {_brief(start.scenario)}, "
                         f"the search is for {_brief(scenario)}")
    phases, values = _climb(scenario, start.phases[None], budget, mode)
    return PhaseConfiguration(scenario, phases[0]), values[0]


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

    Restarts climb together, in stacks of at most 2^19 / ((N+1)^2 d^2)
    restarts (at least one).  Each stack's starts are drawn from the seeded
    generator when it begins, in restart order, and each restart ends where
    optimize_phases from its start, with the same budget and mode, does, bit
    for bit, however the restarts are stacked.  Ties go to the earliest
    restart, so the result is a deterministic function of the seed.  The seed
    must be a non-negative int and restarts a positive one (a bool is
    neither); the budget and mode are checked as optimize_phases checks them,
    before any start is drawn.
    """
    _count(restarts, "restarts", 1)
    _count(seed, "seed", 0)
    _check(budget, mode)
    rng = np.random.default_rng(seed)
    n, d = scenario.n_parties, scenario.dimension
    size = max(1, _STACK_ENTRIES // ((n + 1) ** 2 * d**2))
    best_phases, best_value = None, -math.inf
    values = []
    for first in range(0, restarts, size):
        starts = rng.uniform(0.0, 2.0 * math.pi, (min(size, restarts - first), n, 2, d))
        phases, stack_values = _climb(scenario, starts, budget, mode)
        for row, value in zip(phases, stack_values):
            values.append(value)
            if value > best_value:
                best_phases, best_value = row, value
    return PhaseSearchResult(PhaseConfiguration(scenario, best_phases), best_value, tuple(values))
