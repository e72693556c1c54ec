"""Optimal measurement angles, closed-form maxima, and phase search.

The maximal GHZ violation has a closed form: the two-party value scales by
2^(N-2), the violation ratio against the 2^(N-1) bound fixes the critical
visibility, and a linear phase ramp attains it.  An exact coordinate search
confirms the optimum numerically and probes asymmetric settings: along each
phase the value is a trigonometric polynomial, whose coefficients are read off
the branch-pair factors that _fold folds ghz_bell_value's weights through.  A
sweep yields each phase as a finished move, its peak and the rise to it read
off that polynomial: -arg of its one coefficient for a free phase, and for a
shared one the best of the grid's local maxima, polished by Newton steps in
Halley's form (_peak makes no LAPACK call).  Between symmetric sweeps, Newton
steps on the whole shared block climb the value's closed-form second-order
model; _symmetric builds that sweep and those steps together, and _free_sweep
the free sweep.  optimize_phases states the search's rules.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quantum import (
    PhaseConfiguration,
    _binomials,
    _fold,
    _ghz_lags,
    _ghz_weights,
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
# 2-core VM, and one at N = d = 30.  A free restart holds O(N d^2) entries since its
# sweep folds by halving, so the divisor over-counts it; it stays, so stacks keep their size
_STACK_ENTRIES = 2**19
# a Newton step on the shared block factors and solves a (2d - 2)^2 matrix, O(d^2) memory
# and O(d^3) time: above this many entries (d > 513) a symmetric search climbs by sweeps alone
_NEWTON_ENTRIES = 2**20

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
    n, d = scenario.n_parties, scenario.dimension
    m1 = 15.0 / n
    ramp = np.arange(d) * math.pi / (2.0 * d)
    phases = np.empty((n, 2, d))
    phases[:, 0] = m1 * ramp
    phases[:, 1] = (m1 - 6.0) * ramp
    return PhaseConfiguration(scenario, phases)


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
    is not the maximum, and OverflowError where it leaves the float range:
    the two-qudit maximum lies in (2, 3), so for every d that is N > 1024,
    refused before the closed form is summed.
    """
    n = _count(scenario.n_parties, "n_parties", 2)
    if n > 1024:
        raise OverflowError(f"n={_brief(n)}: the maximal violation 2^(n-2) times the two-qudit "
                            "maximum exceeds the float range")
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


def _grid(m: int):
    """_peak's table for degree-m polynomials, built once per climb: rows e^(i k theta), k = 1..m.

    The 8m - 2 angles theta = h (j - 4m + 1), h = 2 pi/(8m - 2), one of them
    0, in order, with a copy of the last before the first and of the first
    after the last, so that each angle's neighbours are the rows beside it:
    8m rows of m entries.  With them come h, the ramp i k and the curvature
    slack h^2/8 k^2 per |a_k|.
    """
    step = 2.0 * math.pi / (8 * m - 2)
    ramp = np.arange(1, m + 1)
    up = 1j * ramp
    table = np.multiply.outer(step * np.arange(-4 * m, 4 * m), up)
    np.exp(table, out=table)  # in place: at m = 1024 the table alone is 134 MB
    return table, step, up, step**2 / 8.0 * ramp**2.0


def _peak(terms: np.ndarray, grid):
    """(theta, rise): the angle maximizing f = Re sum_m a_m e^(i m theta) and the rise to it from 0.

    terms[m-1, p] is a_m (i m)^p, p = 0..3, so f and its first three
    derivatives are Re sum_m terms[m-1] e^(i m theta).  The rise is
    f(theta) - f(0), and grid is _grid(len(terms)).  One product with the
    grid's table reads f at its angles, h apart, and None is returned where
    no angle reads above its neighbours: f is flat, a = 0.  Between two
    neighbouring angles f exceeds the larger of their values by at most
    h^2/8 sum_m m^2 |a_m|, since that bounds its curvature.  So the angles
    that top both neighbours are polished highest first, each while its
    value plus that slack could beat the best end so far.  From the vertex of
    the parabola through the angle and its neighbours, Newton steps on f'
    climb to the maximum between the neighbours, in Halley's form, which
    reads f''' too.  A step is taken only where f bends down (Newton's
    where f'' read halfway along the step would not), it is cut at the
    neighbours, and the climb ends once a step is below 1e-4 h, the value
    read off the step's cubic model: Halley's error shrinks as its cube, so
    that step leaves theta within rounding of the peak.  At a top flat to
    fourth order the steps only halve, so a climb may take up to 64.  An end
    below the angle it started from gives way to that angle, and the best
    end is returned.
    """
    table, h, up, slack = grid
    a = terms[:, 0]
    values = (table @ a).real
    mid = values[1:-1]
    tops = ((mid >= values[:-2]) & (mid > values[2:])).nonzero()[0]
    if not tops.size:
        return None
    bound = float(np.abs(a) @ slack) if tops.size > 1 else 0.0
    centre = len(mid) // 2  # angle 0
    best = -math.inf
    for middle, k in sorted(zip(mid[tops].tolist(), tops.tolist()), reverse=True):
        if middle + bound < best:
            break  # this top and every lower one: nothing between their neighbours beats best
        left, _, right = values[k : k + 3].tolist()
        x = h * (k - centre)
        lo, hi = x - h, x + h
        theta = x + 0.5 * h * (left - right) / (left - 2.0 * middle + right)
        for _ in range(64):
            f, slope, bend, twist = (np.exp(theta * up) @ terms).real.tolist()
            if bend >= 0.0:
                break
            # Halley's step: Newton's with f'' read halfway along Newton's step
            curve = bend - 0.5 * slope * twist / bend
            step = min(max(theta - slope / (curve if curve < 0.0 else bend), lo), hi) - theta
            theta += step
            f += step * (slope + step * (0.5 * bend + step * twist / 6.0))
            if abs(step) <= 1e-4 * h:
                break
        if middle > f:
            theta, f = x, middle
        if f > best:
            peak, best = theta, f
    return peak, best - float(mid[centre])


def _others(d: int) -> np.ndarray:
    """The indices k != j, ascending, in row j for each phase j a setting's search moves.

    See optimize_phases: at d = 2 only phase 0 moves.
    """
    return np.array([[k for k in range(d) if k != j] for j in range(1 if d == 2 else d)])


def _halves(w: np.ndarray, parties: np.ndarray, lo: int, hi: int):
    """Yield (p, w folded through every party of lo..hi-1 but p) for p = lo..hi-1, in order.

    parties is the stack's phases by party, (N, 2, R, d), a view of the stack.
    w folded through the right half serves the left half, and once the left
    half has been yielded, w folded through it serves the right half: each
    fold builds its parties' factors from the phases as they are then, so the
    caller may move party p's phases after its yield, and every later party's
    w holds the move.  O(log N) partial folds are held at once.  A module
    function, not a closure of the sweep: a recursive closure is a reference
    cycle, and would keep a finished sweep's folds until the next collection.
    """
    if hi - lo == 1:
        yield lo, w
        return
    mid = (lo + hi) // 2
    yield from _halves(_fold(w, parties[mid:hi]), parties, lo, mid)
    yield from _halves(_fold(w, parties[lo:mid]), parties, mid, hi)


def _free_sweep(weights: np.ndarray):
    """A sweep: a generator function of a stack, yielding (coordinate, moves) party by party.

    The stack is the climb's (R, N, 2, d) phases, read again as the caller
    moves them between yields, and moves lists (row, x0, peak, rise) for
    each row whose coordinate is not flat, x0 being the phase's current
    value.  For one row the value is 2^N Re sum_{j,k} of W folded through
    every party (see ghz_bell_value), and a party's fold is affine in its
    halved factors: folded through every party but p, W has two entries
    left, G_1 and G_2, and the value is 2^N Re sum (G_1 f_p1 + G_2 f_p2)
    entrywise.  _halves yields each party's G by halving the parties, and each
    fold builds its parties' factors from the stack as it is then, so a party
    after p reads p's moved phases.  Every intermediate is a partial fold of
    W, each entry within max|W| <= 1/d, and a restart holds O(N d^2) entries:
    the partial folds and one fold's factors.  G is Hermitian like every
    factor, so along phi_psj the value is const + 2^N Re(a e^(i phi)) with
    a = sum_{k != j} G_s[j, k] e^(-i phi_psk).  It peaks at -arg a, and a
    coordinate with a = 0 is flat.  O(N^2 d^2) per sweep and row in
    O(N log N) fold steps; every array step runs once for all rows, and only
    each row's rise is a scalar.
    """
    d = weights.shape[1]
    # a is one batched dot per coordinate: for each phase j, the gradient's flat (j, k != j)
    # entries as a (1, d - 1) row and the setting's phases k != j as a (d - 1, 1) column
    reads = [(j, (j * d + k)[None], k[:, None]) for j, k in enumerate(_others(d))]

    def sweep(phases):
        count = len(phases)
        settings = phases.reshape(count, -1, d)  # a view: setting s of party p is row 2p + s
        # (N, 2, R, d): a party's two settings, each (R, d), as _fold takes a stack's
        parties = phases.transpose(1, 2, 0, 3)
        for p, w in _halves(weights[:, None], parties, 0, len(parties)):
            for s, g in enumerate(w):  # G_1 and G_2, each (R, d, d)
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

    return sweep


def _symmetric(lags: np.ndarray):
    """The symmetric search's (sweep, steps): its sweep, and its Newton steps or None.

    The sweep is a generator function of a stack, yielding (coordinate, moves)
    for each shared phase.  The stack is the climb's (R, N, 2, d) phases,
    whose rows keep every party's block equal to party 1's (2, d) one, and
    moves are as in _free_sweep.  The rows' polynomials are built together,
    and _peak solves each row's on its own.  With every party alike the
    product is binomial, by_t = C(N, t) 2^-N f_1^(N-t) f_2^t entrywise, so
    phi_sj enters the pair (j, k) as e^(i e phi) with e = N - t (setting 1)
    or t (setting 2), and the pair (k, j) as its conjugate.  So the value is
    const + 2^N Re sum_m b_m e^(i m (phi - x0)), centred on the current phase
    x0: b_m sums 2 W[t, j, k] by_t[j, k] over k != j and the t with e = m,
    where W[t, j, k] = L[t, (j - k) mod d], L the lag table of _ghz_lags.
    Each t's term is its lags L[t, (j - k) mod d], 0 at k = j, against
    e^(i p (phi_j - phi_k)) for the two settings' exponents p at t, and the
    weights also carry the (i e)^p of _peak's terms.  So a coordinate costs a
    difference, three products and an exponential for all rows at once:
    O(N d) per row, and _peak's O(N^2).  The exponents, each setting's
    weights and _peak's grid are built once: a setting's weights are its
    rows of lags, in order of e, doubled in reversed order, O(N d) entries,
    and each phase reads d of them as a view.

    The steps are a generator function of a row's (2, d) shared block, each
    step yielding (phases, rise), the block after it and the rise of the
    value over 2^N, read off _shared_taylor.  A step is -H^-1 g in the
    variables, taken while -H is positive definite (its Cholesky factor
    exists) and while both its model rise g.step/2 and the rise it evaluates
    beat the move tolerance.  The model is built on the first call, so a
    climb in which no row asks for steps builds none.  A step holds O(d^2)
    entries and takes O(d^3) time, so above _NEWTON_ENTRIES (d > 513) there
    are none: steps is None.
    """
    n, d = lags.shape[0] - 1, lags.shape[1]
    t = np.arange(n + 1.0)
    powers = (t[:, None] * [-1.0, 1.0] + [n, 0.0])[:, None]  # (N+1, 1, 2): N - t and t
    pairs = 2.0 * _binomials(n)[:, None] * lags + 0j  # (N+1, lag)
    pairs[:, 0] = 0.0  # the pair (j, j), lag 0, holds no phase
    ramps = (1j * t[:, None, None]) ** np.arange(4)  # (i e)^p for row e: _peak's terms
    orders = (slice(None, None, -1), slice(None))  # setting 1's and 2's rows in order of e
    moving = len(_others(d))
    # entry m of a setting's (N+1, 2d, 4) weights holds lag -m mod d, so phase j's
    # pairs[t, (j - k) mod d], k = 0..d-1, are its entries d - j .. 2d - j - 1
    reads = [
        (s, j, powers[e], w[:, d - j : 2 * d - j])
        for s, e in enumerate(orders)
        for w in [pairs[e, -np.arange(2 * d) % d, None] * ramps]
        for j in range(moving)
    ]
    grid = _grid(n)

    def sweep(phases):
        shared = phases[:, :1]  # (R, 1, 2, d): each row's party-1 block
        for s, j, p, w in reads:
            row = shared[..., j, None] - shared  # phi_j - phi_k, 0 at k = j
            terms = np.exp(1j * (p @ row)) @ w  # (R, N+1, 1, 4)
            moves = []
            for i, x0 in enumerate(shared[:, 0, s, j].tolist()):
                move = _peak(terms[i, 1:, 0], grid)
                if move is not None:
                    moves.append((i, x0, x0 + move[0], move[1]))
            yield s * d + j, moves

    if (2 * d - 2) ** 2 > _NEWTON_ENTRIES:
        return sweep, None
    taylor = None  # _shared_taylor(lags), built when a row first asks: many climbs take no step
    m = d - 1
    tol = _GAIN_TOL / 4.0  # the move tolerance _GAIN_TOL 2^(N-2), over 2^N

    def steps(block):
        nonlocal taylor
        taylor = taylor or _shared_taylor(lags)
        value, slope, curve = taylor(block)
        while True:
            try:
                np.linalg.cholesky(curve)
            except np.linalg.LinAlgError:
                return
            step = np.linalg.solve(curve, slope)
            if 0.5 * (slope @ step) <= tol:
                return
            block = block.copy()
            block[:, :m] += step.reshape(2, m)
            reached, slope, curve = taylor(block)
            rise, value = reached - value, reached
            if rise <= tol:
                return
            yield block, rise

    return sweep, steps


def _shared_taylor(lags: np.ndarray):
    """The value of a shared block to second order: a function of a row's (2, d) phases.

    It returns the value over 2^N less a constant, its gradient and its
    negated Hessian in the variables, phases 0..d-2 of each setting taken as
    a flat (2, d - 1) block; the last phase of a setting is the gauge.  Every
    party alike, the t-count's branch phases are Phi_t = (N - t) phi_1 + t phi_2
    (see ghz_bell_value), and with z = e^(i Phi), (N+1, d), and
    P[t, l] = C(N, t) 2^-N L[t, l], lag 0 zeroed, the value is sum Re(z u)
    with u[t, a] = sum_l P[t, l] conj(z[t, a - l]), the sum of the lags'
    terms.  In Phi its gradient is -2 Im(z u), and its Hessian, one (d, d)
    block per t, is 2 Re(z term_l) at (a, a - l) and -2 Re(z u) on the
    diagonal.  The exponents (N - t, t) carry both to the phases, one lag at a
    time: O(N d^2) time and O(N d + d^2) memory, no (N+1, d, d) array.
    """
    n, d = lags.shape[0] - 1, lags.shape[1]
    t = np.arange(n + 1.0)
    powers = np.array([n - t, t])  # (2, N+1): the multiples of phi_1 and phi_2 in Phi_t
    # -H's setting pairs (1, 1), (1, 2), (2, 1), (2, 2), each with its -2 (N+1) products
    cross = -2.0 * (powers[:, None] * powers).reshape(4, n + 1)
    pairs = _binomials(n)[:, None] * lags  # P; lag 0 is never read
    phase = np.arange(d)
    m = d - 1

    def taylor(block):
        z = np.exp(1j * (powers.T @ block))
        back = np.concatenate([z, z], axis=1).conj()  # column d + c - l: conj z[:, (c - l) mod d]
        u = 0.0
        curve = np.empty((4, d, d))  # -H by setting pair, then (phase, phase)
        for l in range(1, d):
            term = pairs[:, l, None] * back[:, d - l : 2 * d - l]
            u = u + term
            curve[:, phase, phase - l] = cross @ (z * term).real  # the index wraps mod d
        zu = z * u
        curve[:, phase, phase] = -(cross @ zu.real)
        slope = powers @ (-2.0 * zu.imag)
        curve = curve.reshape(2, 2, d, d)[:, :, :m, :m].transpose(0, 2, 1, 3)
        return zu.real.sum(), slope[:, :m].ravel(), curve.reshape(2 * m, 2 * m)

    return taylor


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
    takes no further move.  At the end of each sweep, in symmetric mode with
    d <= 513, each row the stop rule keeps takes its Newton steps on its own
    (_symmetric builds them with the sweep, once per call, and their model
    when a row first asks for them); then the rows that stop, or spent their
    budget on those steps, get their end evaluation and are written back,
    and the stack keeps the rest.  The mode picks the sweep, the steps (none
    in free mode) and own, the number of parties that hold their own block
    (N free, 1 symmetric); nothing else reads it.
    A value past the closed form warns at the caller of the public function
    that called this one.
    """
    n, d = scenario.n_parties, scenario.dimension
    ceiling = max_violation(scenario)
    scale = math.ldexp(1.0, n - 2)  # absolute tolerances would fall below an ulp at N ~ 30
    tol = _GAIN_TOL * scale
    if mode == "free":
        sweep, newton, own = _free_sweep(_ghz_weights(n, d)), None, n
    else:
        (sweep, newton), own = _symmetric(_ghz_lags(n, d)), 1
    # symmetric mode: party 1's vectors parameterize all parties, and stay equal in every block
    phases = np.repeat(starts[:, :own], n // own, axis=1)
    values = [_objective(scenario, start) for start in phases]  # a row's start value until it ends
    rows = list(range(len(phases))) if budget > 1 else []  # the stack's rows, by start
    stack = phases  # until a row leaves it
    best = values.copy()
    left = [budget - 1] * len(rows)  # the moves each row may still take
    exact = [True] * len(rows)  # best[i] is the objective at row i, not a sum of read-off gains
    sweep_tol = _SWEEP_TOL * scale
    while rows:
        columns = stack.reshape(len(rows), n // own, -1)  # coordinate c is columns[i, :, c]
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
                if newton:
                    for block, rise in itertools.islice(newton(stack[i, 0]), left[i]):
                        stack[i] = block
                        best[i] += math.ldexp(rise, n)
                        exact[i] = False
                        left[i] -= 1
                if left[i]:
                    keep.append(i)
                    continue
            if not exact[i]:
                best[i] = _objective(scenario, stack[i])
            if best[i] < values[row]:  # rounding near an optimum: the start stands
                stack[i], best[i] = starts[row, :own], values[row]
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
    dropped.  A peak equal to the current phase moves nothing.  Sweeps repeat
    until the kept gains of a full cycle sum to less than 1e-9 * 2^(N-2) or
    the budget is spent.  In symmetric mode with d <= 513 a sweep that does
    not stop the search is followed by Newton steps on the shared block,
    phases 0..d-2 of each setting (see _symmetric); above, their
    (2d - 2)^2 matrix is left out and sweeps alone climb.  Each is taken
    while the negated Hessian is positive definite and both its model rise
    and its evaluated rise beat 1e-13 * 2^(N-2); the rise is added to the
    running value like a kept gain.  The budget counts the start, every
    move yielded (a flat coordinate yields none) and every Newton step
    taken, and the search stops as soon as it is spent, before the sweep
    reads another coordinate or Newton takes another step.  The objective is evaluated at the start and,
    if a move or a Newton step was kept on its gain alone, at the end: the
    returned value is the objective at the returned phases, and if the end
    reads below the start the start's phases and value are returned.  A
    returned value past the closed form by 1e-6 * 2^(N-2) warns: the
    tolerances scale with the value.  Symmetric mode reads the start's
    party-1 vectors as the shared parameters and writes each move and step
    into every party's block of one (N, 2, d) array, so the blocks stay equal
    byte for byte.  Like max_violation, the search's ceiling, it refuses
    N < 2 with ValueError before any sweep, as it does a start from another
    scenario and a budget that is not a positive int (a bool included).
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
