"""Qudit states, multiport-beamsplitter measurements, and joint probabilities.

GHZ tables come from one closed form: the state's d coherent branches are
summed for all 2^N setting strings at once, with no d^N density matrix.  A
dense path contracts any density matrix with the parties' measurements one
party at a time, sharing the work of common setting prefixes; for GHZ states
it is the independent oracle the closed form is checked against.  The GHZ
Bell value never forms the 2^N setting strings: it is summed over the number
t of parties using setting 2, from the N + 1 residue rows of the t-counts when
every party uses the same phases, and otherwise by _fold, the fold of the
branch-pair weights through the parties, one party's factors at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .scenario import (
    BellScenario,
    JointProbabilityTable,
    _brief,
    _exceeds,
    _numerator_rows,
    _power,
    outcome_sums_mod_d,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10

# Dense-path guardrail: the state alone is a D x D complex matrix (268 MB at
# D = 4096), a user's state is diagonalized to validate it (the package's own
# states are positive by construction and are not), and the contraction
# spends of order d D^2 multiply-adds on it; past this Hilbert dimension that
# stops being desk-scale, and GHZ users should take ghz_table instead.
DENSE_DIMENSION_LIMIT = 4096

__all__ = [
    "DENSE_DIMENSION_LIMIT",
    "DenseLimitError",
    "DensityMatrix",
    "PhaseConfiguration",
    "ghz_bell_value",
    "ghz_state",
    "ghz_table",
    "joint_probabilities",
    "mix_with_noise",
    "multiport_unitary",
    "product_state",
]


class DenseLimitError(RuntimeError):
    """Hilbert space, probability table or bound search too large to build densely."""


class DensityMatrix:
    """Validated density matrix on (C^d)^(tensor N).

    The basis index uses the same little-endian party encoding as the
    probability tables: party 1 occupies the fastest digit.
    """

    def __init__(self, scenario: BellScenario, matrix: np.ndarray):
        # row-major, so the pair-axis reshape in joint_probabilities is a view
        self._store(scenario, np.array(matrix, dtype=complex, order="C"))
        smallest = float(np.linalg.eigvalsh(self.matrix)[0])
        if smallest < PSD_EIGENVALUE_FLOOR:
            raise ValueError(
                f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})"
            )

    @classmethod
    def _positive_by_construction(cls, scenario: BellScenario, matrix: np.ndarray):
        """State on a complex array the package has just built and hands over:
        every check but eigvalsh, made in place, and no copy.

        For projectors onto unit vectors, convex mixtures and products of
        validated states, whose diagonalization would cost more than the build.
        The array becomes the state's read-only matrix, so the caller keeps no
        other reference to it.
        """
        rho = cls.__new__(cls)
        rho._store(scenario, matrix)
        return rho

    def _store(self, scenario: BellScenario, mat: np.ndarray) -> None:
        n, d = scenario.n_parties, scenario.dimension
        # d^(2N) > mat.size refuses a huge N before d^N is formed
        if _exceeds(d, 2 * n, mat.size) or mat.shape != (d**n, d**n):
            side = _power(d, n)
            raise ValueError(f"expected a {side} x {side} matrix, got shape {mat.shape}")
        # every comparison against NaN is False: reject it before the checks below
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        herm = _hermiticity_deviation(mat)
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm:.3e})")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {trace}, expected 1")
        mat.flags.writeable = False
        self.scenario = scenario
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.scenario.n_outcome_tuples


# rows per band of the Hermiticity check: a band reads its transposed block in
# runs of 32 entries, where the whole transpose reads one entry per row
_BAND_ROWS = 32


def _hermiticity_deviation(mat: np.ndarray) -> float:
    """max |M_ij - conj(M_ji)| over the upper triangle, one band of rows at a time.

    Equal bit for bit to the maximum over the whole matrix, because the entry
    for (j, i) is the exact negation of the one for (i, j).  Each band reads
    its transposed block a short row at a time into a row-major temporary, so
    the subtraction and the modulus run over contiguous rows; its temporaries
    are a band's size, not the matrix's.
    """
    dim = len(mat)
    worst = 0.0
    for lo in range(0, dim, _BAND_ROWS):
        hi = lo + _BAND_ROWS
        # rows lo:hi from the diagonal on, against columns lo:hi from the diagonal down
        diff = np.conjugate(mat[lo:, lo:hi].T, order="C")
        diff -= mat[lo:hi, lo:]
        worst = max(worst, float(np.abs(diff).max()))
    return worst


def ghz_state(scenario: BellScenario) -> DensityMatrix:
    """Rank-1 projector onto (1/sqrt(d)) sum_j |jj...j>, refused past the dense limit."""
    _check_dense_size(scenario)
    d, dim = scenario.dimension, scenario.n_outcome_tuples
    support = np.arange(d) * ((dim - 1) // (d - 1))  # |jj...j> has index j (d^N - 1)/(d - 1)
    amplitude = 1.0 / math.sqrt(d)
    mat = np.zeros((dim, dim), dtype=complex)
    # the outer product's entry: the rounded amplitude squared, not always 1/d
    mat[np.ix_(support, support)] = amplitude * amplitude
    return DensityMatrix._positive_by_construction(scenario, mat)


def mix_with_noise(rho: DensityMatrix, visibility: float) -> DensityMatrix:
    """White-noise mixture V*rho + (1-V)*identity/d^N."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {_brief(visibility)}")
    dim = rho.dim
    mixed = visibility * rho.matrix
    mixed.flat[:: dim + 1] += (1.0 - visibility) / dim  # the diagonal, in any memory layout
    return DensityMatrix._positive_by_construction(rho.scenario, mixed)


def product_state(rho_a: DensityMatrix, rho_b: DensityMatrix) -> DensityMatrix:
    """Tensor product with rho_a on parties 1..m and rho_b on the rest."""
    a, b = rho_a.scenario, rho_b.scenario
    if a.dimension != b.dimension:
        raise ValueError(f"factors must share the outcome dimension, got {_brief(a.dimension)} "
                         f"and {_brief(b.dimension)}")
    scenario = BellScenario(a.n_parties + b.n_parties, a.dimension)
    # kron puts its first factor in the slow digits; block A must stay fast.
    return DensityMatrix._positive_by_construction(scenario, np.kron(rho_b.matrix, rho_a.matrix))


class PhaseConfiguration:
    """Read-only (N, 2, d) phases in radians: phases[p, c] for party p + 1, setting c + 1."""

    def __init__(self, scenario: BellScenario, phases: np.ndarray):
        arr = np.array(phases)
        if arr.dtype.kind == "c":  # a cast to float would drop the imaginary parts
            raise ValueError(f"phases must be real, got dtype {arr.dtype}")
        arr = arr.astype(float, copy=False)
        n, d = scenario.n_parties, scenario.dimension
        if arr.shape != (n, 2, d):
            expected = f"({_brief(n)}, 2, {_brief(d)})"
            raise ValueError(f"expected phases of shape {expected}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("phases must be finite")
        arr.flags.writeable = False
        self.scenario = scenario
        self.phases = arr

    @classmethod
    def zero(cls, scenario: BellScenario) -> "PhaseConfiguration":
        return cls(scenario, np.zeros((scenario.n_parties, 2, scenario.dimension)))


@lru_cache(maxsize=16)
def _fourier(d: int) -> np.ndarray:
    """d x d discrete Fourier matrix, entry (j, k) = omega^(j k); read-only, built once per d."""
    j = np.arange(d)
    matrix = np.exp(2j * np.pi * np.outer(j, j) / d)
    matrix.flags.writeable = False
    return matrix


def multiport_unitary(phases) -> np.ndarray:
    """Unbiased symmetric multiport splitters with input phase shifters, (..., d) -> (..., d, d).

    Entry (k, l) is omega^(k l) e^(i phi_l)/sqrt(d) with omega = exp(2 pi i/d),
    so every matrix element has modulus 1/sqrt(d).
    """
    phi = np.asarray(phases, dtype=float)
    if phi.ndim == 0 or phi.shape[-1] < 2:
        raise ValueError(f"phase vectors need at least 2 entries, got shape {phi.shape}")
    d = phi.shape[-1]
    return _fourier(d) * np.exp(1j * phi)[..., None, :] / math.sqrt(d)


def joint_probabilities(
    rho: DensityMatrix, config: PhaseConfiguration
) -> JointProbabilityTable:
    """Outcome distributions for every setting string, contracted party by party.

    P(x|s) = <x| U_s rho U_s^dag |x> with U_s the tensor product of the
    parties' multiport unitaries.  Each party's measurement acts on its
    (ket, bra) index pair through K_p[(c, x), (a, b)] = U_pc[x, a] conj(U_pc[x, b]),
    one 2d x d^2 matrix for both settings c.  So rho is read as N pair axes
    of size d^2, party N's leading, and contracted one party at a time from
    party N down: each step is one matrix product, state.reshape(d^2, -1).T
    @ K_p.T, whose left operand is a transposed view that BLAS reads as it
    is.  It turns the leading pair axis into a (setting, outcome) axis at the
    end, so setting strings that share a prefix share its work and the next
    party's pair axis leads.  One transpose at the end puts the (setting,
    outcome) axes in the table's order.

    With D = d^N, step k costs 2^k d^(2N-k+2) complex multiply-adds: 4 N D^2
    in all for d = 2 and under 2 d D^2 * d/(d-2) for d >= 3, against
    2^N * 2 D^3 for rotating rho once per setting string.  The pair-ordered
    copy of rho is the one full-size allocation; step k leaves 2^k d^(2N-k)
    entries, so the call peaks at (1 + 2/d) times rho's bytes, the copy and
    the first step's result.  A single party is read as diag(U rho U^dag)
    directly, because there its K would be 2d times the size of rho.
    """
    if rho.scenario != config.scenario:
        raise ValueError(f"state is for {_brief(rho.scenario)}, "
                         f"phases are for {_brief(config.scenario)}")
    _check_dense_size(rho.scenario)
    n, d = rho.scenario.n_parties, rho.scenario.dimension
    units = multiport_unitary(config.phases)  # (N, 2, d, d)
    if n == 1:
        # K would hold 2 d^3 entries, 2d times rho: read diag(U rho U^dag) instead
        state = np.sum((units[0] @ rho.matrix) * units[0].conj(), axis=-1)
    else:
        # party 1 is the fastest basis digit, so the pair axes run from party N down
        pairs = [axis for p in range(n) for axis in (p, n + p)]
        state = rho.matrix.reshape((d,) * (2 * n)).transpose(pairs)
        for u in units[::-1]:
            k = (u[:, :, :, None] * u[:, :, None, :].conj()).reshape(2 * d, d * d)
            state = state.reshape(d * d, -1).T @ k.T
    # (setting, outcome) of party N down to party 1 -> settings from party 1, outcomes from party N
    order = [*range(2 * n - 2, -1, -2), *range(1, 2 * n, 2)]
    rows = np.ascontiguousarray(state.real.reshape((2, d) * n).transpose(order))
    return JointProbabilityTable._of_fresh(rho.scenario, rows.reshape(2**n, d**n))


def _check_dense_size(scenario: BellScenario) -> None:
    """Refuse the dense path past d^N = DENSE_DIMENSION_LIMIT."""
    if _exceeds(scenario.dimension, scenario.n_parties, DENSE_DIMENSION_LIMIT):
        raise DenseLimitError(f"dense path supports d^N <= {DENSE_DIMENSION_LIMIT}, got "
                              f"{_power(scenario.dimension, scenario.n_parties)}; for GHZ states "
                              "use the closed form (ghz_table, violation --method closed-form)")


def _check_table_size(scenario: BellScenario) -> None:
    """Refuse a table past 2^N d^N = DENSE_DIMENSION_LIMIT**2 entries (N = 12 at d = 2)."""
    n, d, limit = scenario.n_parties, scenario.dimension, DENSE_DIMENSION_LIMIT**2
    if _exceeds(2 * d, n, limit):
        entries = f"{_power(2, n)}*{_power(d, n)}"
        raise DenseLimitError(f"the table needs {entries} entries, over the {limit} allowed")


def ghz_table(config: PhaseConfiguration) -> JointProbabilityTable:
    """Full probability table for the GHZ state via the closed form.

    The d branches of the GHZ state interfere coherently:

        P_s(x) = |sum_j exp(i [Phi_sj + 2 pi j (sum_n x_n)/d])|^2 / d^(N+1)

    where Phi_sj sums the j-th phase of the settings in s over the parties,
    so every outcome tuple with the same sum mod d is equally likely.  Phi is
    summed party by party for all 2^N strings at once, party 1 varying
    slowest as in the table's rows, and one product with the Fourier matrix
    gives every string's d residue-class probabilities.  A table past
    2^N d^N = DENSE_DIMENSION_LIMIT**2 entries raises DenseLimitError.
    """
    scenario = config.scenario
    _check_table_size(scenario)
    n, d = scenario.n_parties, scenario.dimension
    phi = np.zeros((1, d))
    for pair in config.phases:  # (2, d): one party's setting-1 and setting-2 phases
        phi = (phi[:, None, :] + pair[None, :, :]).reshape(-1, d)
    residues = _residues(phi) / d ** (n + 1)
    return JointProbabilityTable._of_fresh(scenario, residues[:, outcome_sums_mod_d(n, d)])


def _residues(phi: np.ndarray) -> np.ndarray:
    """|sum_j e^{i (Phi_j + 2 pi j r/d)}|^2 for each row Phi of branch phases, (..., d) -> (..., d).

    d^(N+1) times the probability of each outcome-sum residue r; by Parseval a
    row's d entries sum to d^2.
    """
    return np.abs(np.exp(1j * phi) @ _fourier(phi.shape[-1])) ** 2


# _fold builds the factors of at most this many entries at once: all 8 parties' at
# (8, 250), and one at a time from d = 513, where one party's alone are 2 d^2 entries
_FACTOR_ENTRIES = 2**20


def _branch_factors(phases: np.ndarray) -> np.ndarray:
    """Halved branch-pair factors 0.5 e^{i(phi_j - phi_k)}: shape (..., d) -> (..., d, d)."""
    branch = np.exp(1j * phases)
    return 0.5 * branch[..., :, None] * branch[..., None, :].conj()


@lru_cache(maxsize=16)
def _ghz_lags(n_parties: int, d: int) -> np.ndarray:
    """Branch-pair weights by lag, (N+1, d): L[t, l] = -d^-2 sum_r coeff(t, r) omega^(r l).

    The weight of the branch pair (j, k) depends on j - k mod d alone, so this
    table holds every weight of _ghz_weights; read-only, built once per (N, d).
    L[t, -l] is the conjugate of L[t, l], because the coefficients are real.
    """
    lags = -(_numerator_rows(n_parties, d, int) / (d - 1) @ _fourier(d)) / d**2
    lags.flags.writeable = False
    return lags


@lru_cache(maxsize=1)
def _ghz_weights(n_parties: int, dimension: int) -> np.ndarray:
    """Branch-pair weights W[t, j, k] = L[t, (j - k) mod d], L the table of _ghz_lags.

    The GHZ Bell value is 2^N Re sum_{t,j,k} W[t,j,k] by_t[j,k], with by_t the
    z^t coefficient of the halved factor product (see ghz_bell_value): the
    path for phases that differ between parties.  Each W[t] is circulant and
    Hermitian, because the coefficients are real.  Only the last (N, d) is
    kept: a search reads one table, and (N+1) d^2 entries per size would add
    up to gigabytes at d in the hundreds.
    """
    j = np.arange(dimension)
    # take, not a fancy index, which would put t fastest: the fold reads contiguous (d, d) slices
    weights = _ghz_lags(n_parties, dimension).take((j[:, None] - j) % dimension, axis=1)
    weights.flags.writeable = False
    return weights


def _fold(w: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Fold weights w through parties' halved factors (f1, f2): w[t] <- f1 w[t] + f2 w[t + 1].

    phases holds the parties folded through, (P, 2, ..., d), and their factors
    are built from it here, at the call, so a fold reads the phases as they are
    now, in blocks of parties of at most _FACTOR_ENTRIES entries (one party at
    least).  Each party leaves one t fewer; the parties commute, so any order
    folds to the same polynomial.  t leads, so a stack's weights, (T, R, d, d),
    take (P, 2, R, d) phases, and every row folds as it would alone, bit for bit.
    """
    parties = max(1, _FACTOR_ENTRIES // (phases[0].size * phases.shape[-1]))
    for lo in range(0, len(phases), parties):
        for f1, f2 in _branch_factors(phases[lo : lo + parties]):
            w = f1 * w[:-1] + f2 * w[1:]
    return w


def _binomials(n_parties: int) -> np.ndarray:
    """C(N, t) / 2^N for t = 0..N: exact integers, each divided once, so every entry is <= 1."""
    total, count, row = 1 << n_parties, 1, []
    for t in range(n_parties + 1):
        row.append(count / total)
        count = count * (n_parties - t) // (t + 1)
    return np.array(row)


def ghz_bell_value(config: PhaseConfiguration) -> float:
    """Bell functional on the GHZ state, summed by t-count instead of by setting.

    Equals bell_value(ghz_table(config)), the negated sum of the correlation
    values.  Every outcome tuple of residue class r has probability
    R_s(r)/d^(N+1), R_s the string's _residues, and a string's coefficients
    depend on it only through its t-count.  No 2^N loop; this is the
    optimizer's objective.

    When every party's (2, d) block is equal, bit for bit, as at optimal_angles
    and throughout a symmetric search, a string's branch phases depend on its
    t-count alone, Phi_t = (N - t) phi_1 + t phi_2, so the value is read off
    the N + 1 rows R_t, each weighted by C(N, t): O(N d^2), and no d x d array
    but the cached Fourier matrix.  Otherwise, expanding the squared branch
    sum, d^(N+1) P_s(r) = sum_{j,k} e^{i(Phi_j - Phi_k)} omega^{(j-k) r}, and
    the phase factor is a product over the parties.  So for every branch pair
    (j, k) the sum over all setting strings with t twos is the z^t coefficient
    by_t of prod_p (f_p1[j,k] + z f_p2[j,k]), with the halved factors f_ps[j,k]
    = e^{i(phi_psj - phi_psk)}/2, and the value is 2^N Re sum_t <W[t], by_t>,
    W the table of _ghz_weights.  No by_t is formed: _fold folds W through the
    parties, given their phases, w[t] <- f_p1 w[t] + f_p2 w[t + 1] for each
    party in turn, one t fewer each time, and the one (d, d) entry left,
    sum_t W[t] by_t entrywise, sums to the value: O(N^2 d^2).  The parties' factors commute,
    so the fold may take them in any order.  A block that differs only in a -0.0 against a 0.0
    takes the fold too, at no cost to the value.

    The 2^N is put back by math.ldexp at the end, after C(N, t)/2^N weights or
    halved factors.  So the shared path's sum stays within (d - 1) d^2 in
    modulus, and every entry of the fold within max|W| <= 1/d, because |f_p1|
    + |f_p2| = 1: the value is returned wherever it fits a float (at
    optimal_angles, N <= 1024 for every d), and OverflowError is raised, as
    by max_violation, where it does not.
    """
    n, d = config.scenario.n_parties, config.scenario.dimension
    phases = config.phases
    raw = phases.tobytes()  # comparing bytes is far cheaper than an elementwise test
    if raw == raw[: len(raw) // n] * n:
        t = np.arange(n + 1)[:, None]
        rows = _residues((n - t) * phases[0, 0] + t * phases[0, 1])  # (N+1, d)
        weighted = np.einsum("t,tr,tr", _binomials(n), _numerator_rows(n, d, float), rows)
        scaled = -float(weighted) / ((d - 1) * d**2)
    else:
        scaled = float(_fold(_ghz_weights(n, d), phases).real.sum())
    return math.ldexp(scaled, n)
