"""Qudit states, multiport-beamsplitter measurements, and joint probabilities.

GHZ tables come from one closed form: the state's d coherent branches are
summed for all 2^N setting strings at once, with no d^N density matrix.  A
dense path contracts any density matrix with the parties' measurements one
party at a time, sharing the work of common setting prefixes; for GHZ states
it is the independent oracle the closed form is checked against.  The GHZ
Bell value never forms the 2^N setting strings: it is read off a generating
function in the number of parties using setting 2.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .scenario import (
    BellScenario,
    JointProbabilityTable,
    all_setting_strings,
    coefficient_by_residue,
    outcome_sums_mod_d,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10

# Dense-path guardrail: the state alone is a D x D complex matrix (268 MB at
# D = 4096), validation diagonalizes it and the contraction spends of order
# d D^2 multiply-adds on it; past this Hilbert dimension that stops being
# desk-scale, and GHZ users should take ghz_table instead.
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
    """Hilbert space, or probability table, too large to build densely."""


class DensityMatrix:
    """Validated density matrix on (C^d)^(tensor N).

    The basis index uses the same little-endian party encoding as the
    probability tables: party 1 occupies the fastest digit.
    """

    def __init__(self, scenario: BellScenario, matrix: np.ndarray):
        self._store(scenario, matrix)
        smallest = float(np.linalg.eigvalsh(self.matrix)[0])
        if smallest < PSD_EIGENVALUE_FLOOR:
            raise ValueError(
                f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})"
            )

    @classmethod
    def _positive_by_construction(cls, scenario: BellScenario, matrix: np.ndarray):
        """State the package built positive semidefinite: every check but eigvalsh.

        For projectors onto unit vectors, convex mixtures and products of
        validated states, whose diagonalization would cost more than the build.
        """
        rho = cls.__new__(cls)
        rho._store(scenario, matrix)
        return rho

    def _store(self, scenario: BellScenario, matrix: np.ndarray) -> None:
        dim = scenario.n_outcome_tuples
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        # every comparison against NaN is False: reject it before the checks below
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
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


def ghz_state(scenario: BellScenario) -> DensityMatrix:
    """Rank-1 projector onto (1/sqrt(d)) sum_j |jj...j>."""
    d = scenario.dimension
    vec = np.zeros(scenario.n_outcome_tuples, dtype=complex)
    step = (scenario.n_outcome_tuples - 1) // (d - 1)  # index of |jj...j> is j*step
    vec[np.arange(d) * step] = 1.0 / math.sqrt(d)
    return DensityMatrix._positive_by_construction(scenario, np.outer(vec, vec.conj()))


def mix_with_noise(rho: DensityMatrix, visibility: float) -> DensityMatrix:
    """White-noise mixture V*rho + (1-V)*identity/d^N."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    dim = rho.dim
    mixed = visibility * rho.matrix + (1.0 - visibility) * np.eye(dim) / dim
    return DensityMatrix._positive_by_construction(rho.scenario, mixed)


def product_state(rho_a: DensityMatrix, rho_b: DensityMatrix) -> DensityMatrix:
    """Tensor product with rho_a on parties 1..m and rho_b on the rest."""
    if rho_a.scenario.dimension != rho_b.scenario.dimension:
        raise ValueError(
            "factors must share the outcome dimension, got "
            f"{rho_a.scenario.dimension} and {rho_b.scenario.dimension}"
        )
    scenario = BellScenario(
        rho_a.scenario.n_parties + rho_b.scenario.n_parties,
        rho_a.scenario.dimension,
    )
    # kron puts its first factor in the slow digits; block A must stay fast.
    return DensityMatrix._positive_by_construction(scenario, np.kron(rho_b.matrix, rho_a.matrix))


class PhaseConfiguration:
    """Per-party, per-setting phase vectors (radians) for multiport measurements."""

    def __init__(self, scenario: BellScenario, phases: np.ndarray):
        arr = np.array(phases, dtype=float)
        expected = (scenario.n_parties, 2, scenario.dimension)
        if arr.shape != expected:
            raise ValueError(f"expected phases of shape {expected}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("phases must be finite")
        arr.flags.writeable = False
        self.scenario = scenario
        self.phases = arr

    def vector(self, party: int, setting: int) -> np.ndarray:
        """Phase vector of a 1-indexed party for setting 1 or 2."""
        if not 1 <= party <= self.scenario.n_parties:
            raise ValueError(f"party {party} out of range")
        if setting not in (1, 2):
            raise ValueError(f"setting must be 1 or 2, got {setting}")
        return self.phases[party - 1, setting - 1]

    @classmethod
    def zero(cls, scenario: BellScenario) -> "PhaseConfiguration":
        return cls(scenario, np.zeros((scenario.n_parties, 2, scenario.dimension)))

    @classmethod
    def from_party_vectors(
        cls, scenario: BellScenario, setting1: Sequence[float], setting2: Sequence[float]
    ) -> "PhaseConfiguration":
        """Same two phase vectors for every party."""
        pair = np.stack([np.asarray(setting1, float), np.asarray(setting2, float)])
        return cls(scenario, np.tile(pair, (scenario.n_parties, 1, 1)))

    def to_json_dict(self) -> dict:
        return {
            "n": self.scenario.n_parties,
            "d": self.scenario.dimension,
            "phases": {
                f"party-{p}": {
                    f"setting-{i}": list(map(float, self.phases[p - 1, i - 1]))
                    for i in (1, 2)
                }
                for p in range(1, self.scenario.n_parties + 1)
            },
        }

    @classmethod
    def from_json_dict(cls, payload) -> "PhaseConfiguration":
        if not isinstance(payload, dict) or not {"n", "d", "phases"} <= set(payload):
            raise ValueError("phase payload must be an object with n, d, phases")
        n, d, phases = payload["n"], payload["d"], payload["phases"]
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, d)):
            raise ValueError("phase payload fields 'n' and 'd' must be integers")
        if not isinstance(phases, dict):
            raise ValueError("phase payload field 'phases' must be an object")
        scenario = BellScenario(n, d)
        vectors = []
        for p in range(1, n + 1):
            party = phases.get(f"party-{p}")
            if not isinstance(party, dict):
                raise ValueError(f"phase payload party-{p} must be an object")
            for i in (1, 2):
                vec = party.get(f"setting-{i}")
                if not isinstance(vec, list) or len(vec) != d:
                    raise ValueError(f"party-{p} setting-{i} must list {d} phases")
                vectors.append(vec)
        try:
            arr = np.array(vectors, dtype=float).reshape(n, 2, d)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError("phase payload phases must be numbers") from exc
        return cls(scenario, arr)


def _fourier(d: int) -> np.ndarray:
    """d x d discrete Fourier matrix, entry (j, k) = omega^(j k)."""
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d)


def multiport_unitary(phase_vector: Sequence[float]) -> np.ndarray:
    """Unbiased symmetric multiport splitter with input phase shifters.

    Entry (k, l) is omega^(k l) e^(i phi_l)/sqrt(d) with omega = exp(2 pi i/d),
    so every matrix element has modulus 1/sqrt(d).
    """
    phi = np.asarray(phase_vector, dtype=float)
    if phi.ndim != 1 or phi.size < 2:
        raise ValueError(f"phase vector must be 1-d with at least 2 entries, got shape {phi.shape}")
    return _fourier(phi.size) * np.exp(1j * phi)[None, :] / math.sqrt(phi.size)


def joint_probabilities(
    rho: DensityMatrix, config: PhaseConfiguration
) -> JointProbabilityTable:
    """Outcome distributions for every setting string, contracted party by party.

    P(x|s) = <x| U_s rho U_s^dag |x> with U_s the tensor product of the
    parties' multiport unitaries.  Each party's measurement acts on its
    (ket, bra) index pair through K_pc[x, (a, b)] = U_pc[x, a] conj(U_pc[x, b]),
    a d x d^2 matrix per setting c.  So rho is read as N pair axes of size
    d^2 and contracted one party at a time with both settings at once: each
    step doubles a leading setting axis and turns one pair axis into an
    outcome axis, and setting strings that share a prefix share its work.

    With D = d^N, step k costs 2^k d^(2N-k+2) complex multiply-adds: 4 N D^2
    in all for d = 2 and under 2 d D^2 * d/(d-2) for d >= 3, against
    2^N * 2 D^3 for rotating rho once per setting string.  Step k leaves
    2^k d^(2N-k) entries, so no intermediate holds more than 2 D^2 / d,
    which is no more than rho.  A single party is read as diag(U rho U^dag)
    directly, because there its K would be 2d times the size of rho.
    """
    if rho.scenario != config.scenario:
        raise ValueError(
            f"state is for {rho.scenario}, phases are for {config.scenario}"
        )
    if rho.dim > DENSE_DIMENSION_LIMIT:
        raise DenseLimitError(
            f"dense path supports d^N <= {DENSE_DIMENSION_LIMIT}, got {rho.dim}; "
            "for GHZ states use the closed-form path (ghz_table)"
        )
    n, d = rho.scenario.n_parties, rho.scenario.dimension
    units = [
        np.stack([multiport_unitary(config.vector(p, c)) for c in (1, 2)])
        for p in range(1, n + 1)
    ]
    if n == 1:
        # K would hold 2 d^3 entries, 2d times rho: read diag(U rho U^dag) instead
        state = np.sum((units[0] @ rho.matrix) * units[0].conj(), axis=-1)
    else:
        # party 1 is the fastest basis digit, so the pair axes run from party N down
        pairs = [axis for p in range(n) for axis in (p, n + p)]
        state = rho.matrix.reshape((d,) * (2 * n)).transpose(pairs)
        for p in reversed(range(n)):
            u = units[p]
            k = (u[:, :, :, None] * u[:, :, None, :].conj()).reshape(2, 1, d, d * d)
            # (settings so far, outcomes so far, pair p, pairs below) -> (setting p, ...)
            state = np.matmul(k, state.reshape(-1, d * d, d ** (2 * p)))
    rows = np.real(state).reshape(2**n, d**n)
    return JointProbabilityTable(
        rho.scenario, dict(zip(all_setting_strings(n), rows))
    )


def ghz_table(config: PhaseConfiguration) -> JointProbabilityTable:
    """Full probability table for the GHZ state via the closed form.

    The d branches of the GHZ state interfere coherently:

        P_s(x) = |sum_j exp(i [Phi_sj + 2 pi j (sum_n x_n)/d])|^2 / d^(N+1)

    where Phi_sj sums the j-th phase of the settings in s over the parties,
    so every outcome tuple with the same sum mod d is equally likely.  Phi is
    summed party by party for all 2^N strings at once, party 1 varying
    slowest as in all_setting_strings, and one product with the Fourier
    matrix gives every string's d residue-class probabilities.
    """
    scenario = config.scenario
    n, d = scenario.n_parties, scenario.dimension
    phi = np.zeros((1, d))
    for pair in config.phases:  # (2, d): one party's setting-1 and setting-2 phases
        phi = (phi[:, None, :] + pair[None, :, :]).reshape(-1, d)
    residues = np.abs(np.exp(1j * phi) @ _fourier(d)) ** 2 / d ** (n + 1)
    rows = residues[:, outcome_sums_mod_d(n, d)]
    return JointProbabilityTable(scenario, dict(zip(all_setting_strings(n), rows)))


def _branch_factors(phases: np.ndarray) -> np.ndarray:
    """Halved branch-pair factors 0.5 e^{i(phi_j - phi_k)}: shape (..., d) -> (..., d, d)."""
    branch = np.exp(1j * phases)
    return 0.5 * branch[..., :, None] * branch[..., None, :].conj()


@lru_cache(maxsize=None)
def _ghz_weights(n_parties: int, dimension: int) -> np.ndarray:
    """Branch-pair weights W[t, j, k] = -d^-2 sum_r coeff(t, r) omega^(r (j - k)).

    The GHZ Bell value is 2^N Re sum_{t,j,k} W[t,j,k] by_t[j,k], with by_t the
    z^t coefficient of the halved factor product (see ghz_bell_value).  Each
    W[t] is circulant and Hermitian, because the coefficients are real.
    """
    d = dimension
    coeffs = np.array([coefficient_by_residue(t, d) for t in range(n_parties + 1)])
    j = np.arange(d)
    lag = (j[:, None] - j[None, :]) % d
    weights = -(coeffs @ _fourier(d))[:, lag] / d**2
    weights.flags.writeable = False
    return weights


def ghz_bell_value(config: PhaseConfiguration) -> float:
    """Bell functional on the GHZ state, summed by t-count instead of by setting.

    Equals bell_value(ghz_table(config)).  Expanding the squared branch sum,
    d^(N+1) P_s(r) = sum_{j,k} e^{i(Phi_j - Phi_k)} omega^{(j-k) r}, and the
    phase factor e^{i(Phi_j - Phi_k)} is a product over the parties.  So for
    every branch pair (j, k) the sum over all setting strings with t twos is
    the z^t coefficient of prod_p (f_p1[j,k] + z f_p2[j,k]), with
    f_ps[j,k] = e^{i(phi_psj - phi_psk)}.  The residue-class weights that the
    t-count's coefficients give each branch pair are the table W of
    _ghz_weights, built once per (N, d).  Cost O(N^2 d^2), no 2^N loop; this
    is the optimizer's objective.

    Every factor is halved and the 2^N put back by math.ldexp, so no
    intermediate overflows: the value is returned wherever it fits a float
    (at the optimum, N <= 1024 for every d), and OverflowError is raised,
    as by max_violation, where it does not.
    """
    scenario = config.scenario
    n, d = scenario.n_parties, scenario.dimension
    by_t = np.zeros((n + 1, d, d), dtype=complex)
    by_t[0] = 1.0
    for p, (f1, f2) in enumerate(_branch_factors(config.phases)):  # (N, 2, d, d)
        by_t[1 : p + 2] = by_t[1 : p + 2] * f1 + by_t[: p + 1] * f2
        by_t[0] *= f1
    scaled = float((_ghz_weights(n, d).reshape(-1) @ by_t.reshape(-1)).real)
    return math.ldexp(scaled, n)
